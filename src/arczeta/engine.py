"""Arc-space stratification engine.

Computes the virtual Poincaré polynomial of a truncated arc-space cell
by recursive stratification of the coefficient constraints:

* algebraic cleanup (constant constraints, nonzero-factor reduction,
  forced zeros from definite forms),
* pivot discharges of variables that appear linearly with a unit
  coefficient (graphs contribute a factor 1, punctured lines u-1),
* a catalog of recognized terminal shapes (diagonal quadrics, power
  forms, monomial equations, cusp-type plane curves), combined by
  inclusion-exclusion over nonvanishing assumptions,
* hyperbolic peels: an isolated pair z^2 - w^2 rotates to the product
  coordinates (z+w, z-w) and cuts the stratum in two,
* sign splits on a chosen coordinate when nothing else applies.

A stratum carries its prefactor as two exponents (a, b), meaning
u^a (u-1)^b: pivots and peels only ever multiply it by u, u-1 or
(u-1)^2.  Every leaf contributes u^(a+free) (u-1)^(b+loose) times
its recognized values, where ``free`` and ``loose`` count the variables
left in no constraint without and with a nonvanishing assumption, and
the results add up by additivity of the virtual Poincaré polynomial.
The engine never guesses: an unrecognized terminal shape or an
exhausted stratum budget yields an explicit failure outcome.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby, product
from math import factorial
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .mpoly import Coeff, Monomial, MPoly, mask_ids
from .quadric import (
    beta_D_curve,
    beta_D_curve_zero,
    beta_power_fiber,
    beta_power_zero,
    beta_Y,
    beta_Y_fiber,
)
from .upoly import ONE, U_MINUS_1, UPoly, ZERO, u_pow, u_sum

__all__ = [
    "EQ",
    "NEQ",
    "DEFAULT_BUDGET",
    "BUDGET_ENV",
    "MAX_ORDER",
    "ArcSystem",
    "EngineOutcome",
    "build_system",
    "decompose",
    "beta_of",
]

EQ = "eq"
NEQ = "neq"

DEFAULT_BUDGET = 10_000
BUDGET_ENV = "ARCZETA_STRATUM_BUDGET"

_BLOCK_RANK = {"c": 0, "b": 1, "a": 2}


def effective_budget(override: int | None = None) -> int:
    """The stratum budget: ``override`` if given, else the environment's, else the default."""
    if override is not None:
        if override < 1:
            raise ValueError(f"budget must be positive, got {override}")
        return override
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


@dataclass
class ArcSystem:
    """Constraint system for one arc-space cell.

    A variable is a bare integer id.  ``names`` gives each id its trace
    name, ``rank`` orders the ids for splits and peels, and ``alive`` is
    the mask of them all (bit v for id v); ``build_system`` passes the
    shared, read-only ones of its layout (see ``_layout``).
    """

    n: int
    target: int | str
    constraints: list[tuple[MPoly, str]]
    names: Mapping[int, str]
    rank: Mapping[int, int]
    alive: int

    @property
    def total_vars(self) -> int:
        return self.alive.bit_count()


# Arc coefficient v_{j,s} (coordinate j, level s) has id j*_LEVEL_STRIDE + s-1.
# The ids do not depend on the cell order n, so one expansion serves every
# cell of a germ, and they sort in (coordinate, level) order, which fixes the
# order of terminal recognition, of the nonvanishing assumptions in _T and
# of the terms in failure texts.  A set of ids is an int mask, bit v for id
# v, and every mask operation of a stratum costs in proportion to the mask's
# length, up to d*_LEVEL_STRIDE bits for d coordinates, so the stride is kept
# short.  A level s <= n must stay below it, which caps the arc order at
# MAX_ORDER: far above the tables' n = 9 and the 2D + 3 = 63 that the longest
# weighted-homogeneous period (E8, D = 30) needs.
_LEVEL_STRIDE = 256
#: The largest arc order n that ``build_system`` accepts.
MAX_ORDER = _LEVEL_STRIDE


def _levels(m: int, e: int, low: int = 1) -> Iterator[tuple[int, ...]]:
    """Every way to write m as a sum of e levels s >= low, in ascending order."""
    if e == 1:
        if m >= low:
            yield (m,)
        return
    for s in range(low, m // e + 1):
        for rest in _levels(m - s, e - 1, s):
            yield (s,) + rest


@lru_cache(maxsize=None)
def _power_terms(j: int, e: int, m: int) -> tuple[tuple[Monomial, int], ...]:
    """The t^m terms of x_j^e on the arc x_j = sum_{s>=1} v_{j,s} t^s.

    One term per way to write m as a sum of e levels: the monomial of
    the v_{j,s}, with coefficient e!/prod k! over the multiplicities k.
    """
    terms = []
    for levels in _levels(m, e):
        mono = tuple((j * _LEVEL_STRIDE + s - 1, len(list(k))) for s, k in groupby(levels))
        multinomial = factorial(e)
        for _, k in mono:
            multinomial //= factorial(k)
        terms.append((mono, multinomial))
    return tuple(terms)


def _splits(m: int, mins: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every split m = m_1 + ... + m_r with each m_i >= mins[i]."""
    if len(mins) == 1:
        if m >= mins[0]:
            yield (m,)
        return
    for first in range(mins[0], m - sum(mins[1:]) + 1):
        for rest in _splits(m - first, mins[1:]):
            yield (first,) + rest


class _Expansion:
    """germ(arc(t)): its t^m coefficients, each computed on first request and kept.

    A germ monomial c * prod_j x_j^{e_j} contributes at t^m, for every
    split m = sum_j m_j, the products of one t^{m_j} term of each x_j^{e_j}
    (``_power_terms``).  Distinct monomials, splits and level choices give
    distinct arc monomials, so each term is written once.
    """

    __slots__ = ("_monomials", "_coeffs")

    def __init__(self, germ: MPoly) -> None:
        self._monomials = [(mono, tuple(e for _, e in mono), c) for mono, c in germ.terms()]
        if any(not mono for mono, _, _ in self._monomials):
            raise ValueError("germ has a constant term")
        self._coeffs: list[MPoly] = []

    def __getitem__(self, m: int) -> MPoly:
        coeffs = self._coeffs
        while len(coeffs) <= m:
            coeffs.append(self._coefficient(len(coeffs)))
        return coeffs[m]

    def _coefficient(self, m: int) -> MPoly:
        out: dict[Monomial, Coeff] = {}
        for mono, exps, c in self._monomials:
            for split in _splits(m, exps):
                factors = [_power_terms(j, e, mj) for (j, e), mj in zip(mono, split)]
                for parts in product(*factors):
                    coeff = c
                    for _, k in parts:
                        coeff *= k
                    # the ids grow with the coordinate, so the joined monomial is sorted
                    out[tuple(chain.from_iterable(part for part, _ in parts))] = coeff
        return MPoly._wrap(out)


@lru_cache(maxsize=2)
def _expansion(germ: MPoly) -> _Expansion:
    """germ(arc(t)), one per germ, extended as cells ask for higher orders.

    Each t^m coefficient is written down directly from the germ's
    monomials (see ``_Expansion``), not multiplied out from lower ones.
    It involves only levels s <= m, so it is the same for every cell
    order n >= m.  The cache keeps the last two germs: a
    zeta table walks one germ's cells, and a pair scan alternates
    between two germs.
    """
    return _Expansion(germ)


@lru_cache(maxsize=128)
def _layout(
    blocks: tuple[str, ...], n: int
) -> tuple[Mapping[int, str], Mapping[int, int], int]:
    """The names, split ranks and id mask of a cell's variables over
    ``blocks`` at order n, built once.

    Variable v_{j,s} of block letter ``blocks[j]`` is named ``c{s}^{coord}``
    in a quadric block, ``coord`` counting the quadric blocks up to j, and
    ``{block}{s}`` otherwise.  Splits take quadric coefficients before
    ``b`` before ``a``, then the lowest level, then the lowest coordinate;
    a rank encodes that order as the integer key (block rank, s, j), since
    j orders the blocks of one letter as their coordinates do.  Every
    system over the same (blocks, n) shares the maps, so they are
    read-only views.
    """
    names: dict[int, str] = {}
    rank: dict[int, int] = {}
    alive = 0
    quadrics = 0
    for j, block in enumerate(blocks):
        if block not in _BLOCK_RANK:
            raise ValueError(f"unknown block {block!r}")
        quadrics += block == "c"
        for s in range(1, n + 1):
            vid = j * _LEVEL_STRIDE + s - 1
            names[vid] = f"c{s}^{quadrics}" if block == "c" else f"{block}{s}"
            rank[vid] = (_BLOCK_RANK[block] * (n + 1) + s) * len(blocks) + j
            alive |= 1 << vid
    return MappingProxyType(names), MappingProxyType(rank), alive


def build_system(
    germ: MPoly, blocks: Sequence[str], n: int, target: int | str
) -> ArcSystem:
    """Cut the constraints of one arc-space cell from germ(arc(t)).

    ``germ`` is a polynomial in ambient variables 0..len(blocks)-1; each
    receives the arc sum_{s>=1} v_{j,s} t^s, and the cell keeps levels
    s <= n.  Constraints: the t^m coefficient vanishes for m < n, and at
    m = n equals the target sign (or is nonzero for the order-exactly-n
    cell).

    The expansion is computed once per germ and extended on demand (see
    ``_expansion``), so every order and channel shares it.  A signed
    cell's last constraint is a shifted view of the shared t^n
    coefficient (``MPoly.shifted``), so it reuses that coefficient's
    summary and zeroings.  Variable ids are keyed by (coordinate,
    level), independent of n.  Their names, split ranks and the initial
    ``alive`` mask come from one read-only layout per (blocks, n) (see
    ``_layout``), shared by every system over it.
    Integer germs keep ``int`` coefficients; ``Fraction`` appears only
    where the germ has one.
    """
    if n < 2:
        raise ValueError(f"arc order must be >= 2, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"arc order must be <= {MAX_ORDER}, got {n}")
    if target not in (1, -1, "naive"):
        raise ValueError(f"target must be +1, -1 or 'naive', got {target!r}")
    names, rank, alive = _layout(tuple(blocks), n)
    d = len(blocks)
    if germ.summary().mask >> d:
        raise ValueError(f"germ has variables beyond the {d} blocks")

    tpoly = _expansion(germ)
    if not tpoly[0].is_zero() or not tpoly[1].is_zero():
        raise ValueError("germ must vanish to order >= 2 at the origin")

    constraints = [(tpoly[m], EQ) for m in range(2, n) if not tpoly[m].is_zero()]
    if target == "naive":
        constraints.append((tpoly[n], NEQ))
    else:
        constraints.append((tpoly[n].shifted(target), EQ))
    return ArcSystem(n, target, constraints, names, rank, alive)


# ---------------------------------------------------------------------------
# Terminal-shape catalog
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _u_class(a: int, b: int) -> UPoly:
    """u^a (u-1)^b, the class of R^a x (R minus 0)^b; every leaf reuses it."""
    return u_pow(a) * U_MINUS_1**b


def _torus_fiber(exps: tuple[int, ...], positive: bool) -> UPoly:
    if any(e % 2 for e in exps):
        return _u_class(0, len(exps) - 1)
    if not positive:
        return ZERO
    half = tuple(e // 2 for e in exps)
    return _torus_fiber(half, True) + _torus_fiber(half, False)


def _recognize(p: MPoly, rel: str) -> UPoly | None:
    """beta of {p rel 0} inside R^vars(p), or None if unrecognized."""
    if rel == NEQ:
        inner = _recognize(p, EQ)
        if inner is None:
            return None
        return u_pow(p.summary().mask.bit_count()) - inner
    if p.is_zero():
        return ONE
    if p.is_const():
        return ZERO
    e = p.constant_term()
    terms = [(m, c) for m, c in p.terms() if m]

    if len(terms) == 1:
        mono, c = terms[0]
        k = len(mono)
        if e == 0:
            return u_pow(k) - _u_class(0, k)
        exps = tuple(ex for _, ex in mono)
        # c*m = -e has a solution with m > 0 iff e and c differ in sign
        return _torus_fiber(exps, (e > 0) != (c > 0))

    if all(len(m) == 1 for m, _ in terms):
        entries = [(m[0][0], m[0][1], c) for m, c in terms]
        if len({v for v, _, _ in entries}) == len(entries):
            quad = [(v, c) for v, ex, c in entries if ex == 2]
            high = [(v, ex, c) for v, ex, c in entries if ex != 2]
            pq = (
                sum(1 for _, c in quad if c > 0),
                sum(1 for _, c in quad if c < 0),
            )
            if not high:
                if e == 0:
                    return beta_Y(pq)
                return beta_Y_fiber(pq, 1 if e < 0 else -1)
            if len(high) == 1 and high[0][1] >= 3:
                m0 = high[0][1]
                sigma = 1 if high[0][2] > 0 else -1
                if e == 0:
                    return beta_power_zero(m0, sigma, pq)
                return beta_power_fiber(m0, sigma, pq, 1 if e < 0 else -1)

    if len(terms) == 2:
        curve = _match_cusp_curve(terms, e)
        if curve is not None:
            return curve

    return None


def _match_cusp_curve(
    terms: list[tuple[tuple[tuple[int, int], ...], Coeff]], e: Coeff
) -> UPoly | None:
    """{c1*x*v^2 + c2*x^j = -e} for j >= 3: the D-family curve shapes."""
    for first, second in (terms, terms[::-1]):
        m1, c1 = first
        m2, c2 = second
        if len(m1) != 2 or len(m2) != 1:
            continue
        exps = sorted(m1, key=lambda t: t[1])
        if exps[0][1] != 1 or exps[1][1] != 2:
            continue
        x = exps[0][0]
        if m2[0][0] != x or m2[0][1] < 3:
            continue
        j = m2[0][1]
        k = j + 1
        s2 = 1 if c2 > 0 else -1
        if c1 < 0:
            s2 *= (-1) ** j
        if e == 0:
            return beta_D_curve_zero(k, s2)
        return beta_D_curve(k, s2, 1 if e < 0 else -1)
    return None


@lru_cache(maxsize=256)
def _T(p: MPoly, rel: str, assumed: int, ambient: int) -> UPoly | None:
    """beta of {p rel 0, v != 0 for v in assumed} inside R^ambient.

    ``assumed`` and ``ambient`` are id masks.  A pure function of
    immutable arguments, memoised in a small LRU: the strata of one cell
    ask for the same terminals many times.  The lowest id is sliced first.
    """
    mask = p.summary().mask
    if assumed:
        low = assumed & -assumed
        rest = assumed ^ low
        if not mask & low:
            sub = _T(p, rel, rest, ambient & ~low)
            return None if sub is None else U_MINUS_1 * sub
        whole = _T(p, rel, rest, ambient)
        if whole is None:
            return None
        sliced = _T(p.subs_zero(low.bit_length() - 1), rel, rest, ambient & ~low)
        if sliced is None:
            return None
        return whole - sliced
    base = _recognize(p, rel)
    if base is None:
        return None
    return u_pow(ambient.bit_count() - mask.bit_count()) * base


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


@dataclass
class _Stratum:
    constraints: list[tuple[MPoly, str]]
    assumed: int  # id masks
    alive: int
    prefactor: tuple[int, int]  # (a, b): u^a (u-1)^b
    depth: int


#: One fired rule: (depth, template, var_ids, arg).  ``template`` is the
#: rule's trace format, filled with the names of ``var_ids`` and then
#: ``arg`` (a constraint index or a leaf value) unless it is None.
Step = tuple[int, str, tuple[int, ...], object]

#: The template of a leaf step, whose ``arg`` is the leaf's value.
_LEAF = "[leaf] %s"


@dataclass
class EngineOutcome:
    """Result of a decomposition: a value or an explicit failure.

    Every run keeps its fired rules as ``steps`` and the system's
    ``names``, from which ``trace`` renders; no text is built before
    ``trace`` is read.  ``leaves`` is read off the leaf steps.
    """

    value: UPoly | None
    failure: str | None
    detail: str
    strata: int
    steps: list[Step] = field(default_factory=list)
    names: Mapping[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __getstate__(self) -> dict:
        # ``names`` is the system's read-only layout view, which cannot be pickled
        return {**self.__dict__, "names": dict(self.names)}

    @property
    def leaves(self) -> list[UPoly]:
        """The value of each leaf, in the order the run met them."""
        # ``==``, not ``is``: a pickled or copied outcome carries fresh strings
        return [arg for _, template, _, arg in self.steps if template == _LEAF]

    @property
    def trace(self) -> list[str]:
        """One line per step, indented by its depth."""
        names = self.names
        return [
            "  " * depth
            + template % (*(names[v] for v in var_ids), *(() if arg is None else (arg,)))
            for depth, template, var_ids, arg in self.steps
        ]

    def audit(self) -> bool:
        """Additivity check: the leaf contributions, folded one by one,
        sum to the value (which ``decompose`` adds up with ``u_sum``)."""
        if not self.ok:
            return False
        total = ZERO
        for v in self.leaves:
            total += v
        return total == self.value


class _Failure(Exception):
    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(kind)
        self.kind = kind
        self.detail = detail


def decompose(system: ArcSystem, budget: int | None = None) -> EngineOutcome:
    """Stratify ``system``, recording every fired rule as a step, and add up
    the leaf steps' values, once, in one map (``u_sum``).

    Splits and peels choose variables by the system's ``rank`` and the
    root stratum starts from its ``alive`` set, both shared with every
    system over the same layout; nothing here writes to them.
    """
    limit = effective_budget(budget)
    names = system.names
    steps: list[Step] = []
    processed = 0

    root = _Stratum(list(system.constraints), 0, system.alive, (0, 0), 0)
    stack = [root]
    rank = system.rank

    try:
        while stack:
            st = stack.pop()
            processed += 1
            if processed > limit:
                raise _Failure(
                    "depth-exceeded",
                    f"stratum budget {limit} exhausted (set {BUDGET_ENV} to raise it)",
                )
            fate = _simplify(st, rank, names, steps)
            if fate is None:
                steps.append((st.depth, "[empty]", (), None))
            elif isinstance(fate, UPoly):
                steps.append((st.depth, _LEAF, (), fate))
            else:
                stack.extend(fate)
        value = u_sum(arg for _, template, _, arg in steps if template == _LEAF)
        failure, detail = None, ""
    except _Failure as f:
        value, failure, detail = None, f.kind, f.detail
    return EngineOutcome(
        value=value,
        failure=failure,
        detail=detail,
        strata=processed,
        steps=steps,
        names=names,
    )


def _simplify(st, rank, names, steps):
    """Run the rewrite rules to quiescence; return the stratum's fate.

    The first round, and each round after a pivot that substituted, repeats
    one cleanup sweep to its fixpoint; every round then discharges one
    pivot.  When no pivot is left, a terminal attempt, a peel or a split
    ends the stratum.

    Returns None for an empty stratum, the value of a leaf, or the two
    child strata of a peel or a split; raises ``_Failure`` when a
    terminal is unmatched and nothing can be split.

    Rules read each constraint's cached ``MPoly.summary()``, and every set
    of variables is an id mask; ``rank`` orders the variable ids for
    splits and peels; ``names`` serve only the failure detail.  Every fired
    rule is appended to ``steps``.
    """
    cleanup = True
    while True:
        if cleanup:
            # One sweep runs the cleanup rules on each constraint in turn: it
            # divides out the assumed content (a neq first assumes its whole
            # content), drops a satisfied constant or finds the stratum empty
            # on an unsatisfiable one, and collects the zeros an equation
            # forces.  A neq's new assumptions can divide a constraint the
            # sweep has passed, so sweeps repeat until one assumes nothing
            # new; only then are the forced zeros applied.
            assumed = before = st.assumed
            kept: list[tuple[MPoly, str]] = []
            forced = 0
            for p, rel in st.constraints:
                content = p.summary().content
                if content:
                    if rel == NEQ:
                        for v, _ in content:
                            assumed |= 1 << v
                        p = p.divide_by(dict(content))
                    else:
                        div = {v: e for v, e in content if assumed >> v & 1}
                        if div:
                            p = p.divide_by(div)
                if p.is_const():
                    # 0 = 0 and c != 0 hold; 0 != 0 and c = 0 do not
                    if p.is_zero() == (rel == NEQ):
                        return None
                    continue
                kept.append((p, rel))
                if rel != EQ:
                    continue
                single = p.single_term()
                if single is not None and len(single[0]) == 1:
                    forced |= 1 << single[0][0][0]
                    continue
                verdict = _definite(p, assumed)
                if verdict == "empty":
                    return None
                if verdict:
                    forced |= verdict
            st.constraints = kept
            st.assumed = assumed
            if assumed != before:
                continue
            if forced:
                if forced & assumed:
                    return None
                st.constraints = [(p.subs_zero_mask(forced), rel) for p, rel in kept]
                st.alive &= ~forced
                continue

        # one pivot discharge per round, deepest constraint first: a variable
        # is a pivot of constraint i if it occurs in no earlier constraint
        # (and, for a neq, in no later one either).  The cleanup rules read
        # only each constraint and the assumptions, so they re-run only after
        # a pivot substitutes into another constraint.
        cons = st.constraints
        earlier = [0]
        for p, _ in cons[:-1]:
            earlier.append(earlier[-1] | p.summary().mask)
        assumed = st.assumed
        unassumed = ~assumed
        for i in range(len(cons) - 1, -1, -1):
            p, rel = cons[i]
            # taken: the variables of earlier (or, for a neq, of any other)
            # constraints and the assumed ones, none of which can be a pivot
            taken = earlier[i] | assumed
            if rel == NEQ:
                for q, _ in cons[i + 1 :]:
                    taken |= q.summary().mask
            v = None
            for w, rest in p.summary().pivots.items():
                if (
                    not taken >> w & 1
                    and not rest & unassumed
                    and (v is None or rank[w] < rank[v])
                ):
                    v = w
            if v is not None:
                break
        else:
            break
        st.alive &= ~(1 << v)
        if rel == EQ:
            # v = -b/a is needed only where a later constraint has v
            split = None
            new_cons = cons[:i]
            for q, qrel in cons[i + 1 :]:
                if q.summary().mask >> v & 1:
                    if split is None:
                        split = p.linear_split(v)
                    q = q.subs_clear(v, *split)
                new_cons.append((q, qrel))
            st.constraints = new_cons
            cleanup = split is not None
            steps.append((st.depth, "[pivot] %s from eq#%s", (v,), i))
        else:
            st.constraints = cons[:i] + cons[i + 1 :]
            a, b = st.prefactor
            st.prefactor = (a, b + 1)
            cleanup = False
            steps.append((st.depth, "[pivot] %s from neq#%s (factor u-1)", (v,), i))

    # terminal attempt: a constraint sharing no variable with another is
    # recognized on its own
    masks = [p.summary().mask for p, _ in st.constraints]
    # seen: the variables of some constraint; shared: those of two or more
    seen = shared = 0
    for mask in masks:
        shared |= seen & mask
        seen |= mask
    assumed = st.assumed
    blocked: list[int] = []
    values: list[UPoly] = []
    for i, (p, rel) in enumerate(st.constraints):
        mask = masks[i]
        if shared & mask:
            blocked.append(i)
            continue
        val = _T(p, rel, assumed & mask, mask)
        if val is None:
            blocked.append(i)
        else:
            values.append(val)
    if not blocked:
        unseen = st.alive & ~seen
        free = (unseen & ~assumed).bit_count()
        loose = (unseen & assumed).bit_count()
        a, b = st.prefactor
        value = _u_class(a + free, b + loose)
        for val in values:
            value = value * val
        return value

    for i in blocked:
        p, rel = st.constraints[i]
        pair = _peelable_pair(p, shared, assumed, rank)
        if pair is None:
            continue
        z, w = pair
        steps.append((st.depth, "[peel] %s^2-%s^2 in #%s", (z, w), i))
        # z and w occur in p only as their own bare squares
        both = 1 << z | 1 << w
        reduced = p.subs_zero_mask(both)
        # With a = z+w, b = z-w the constraint is ab + r: a != 0 solves for b
        # (factor u-1, or (u-1)^2 for a neq), a = 0 leaves r with b free (u).
        alive, depth = st.alive & ~both, st.depth + 1
        before, after = st.constraints[:i], st.constraints[i + 1 :]
        a, b = st.prefactor
        drop = (a, b + (1 if rel == EQ else 2))
        kept = before + [(reduced, rel)] + after
        return [
            _Stratum(before + after, assumed, alive, drop, depth),
            _Stratum(kept, assumed, alive, (a + 1, b), depth),
        ]
    for i in blocked:
        splittable = masks[i] & ~assumed
        if splittable:
            v = min(mask_ids(splittable), key=rank.__getitem__)
            steps.append((st.depth, "[split] %s", (v,), None))
            zeroed = [(p.subs_zero(v), rel) for p, rel in st.constraints]
            bit, depth = 1 << v, st.depth + 1
            return [
                _Stratum(zeroed, assumed, st.alive & ~bit, st.prefactor, depth),
                _Stratum(list(st.constraints), assumed | bit, st.alive, st.prefactor, depth),
            ]
    frozen = [st.constraints[i][0].text(names) for i in blocked]
    raise _Failure("unmatched-terminal", "no terminal form for: " + "; ".join(frozen))


def _peelable_pair(
    p: MPoly, shared: int, assumed: int, rank: Mapping[int, int]
) -> tuple[int, int] | None:
    """A hyperbolic pair z^2 - w^2 isolated in constraint p, if any.

    Both variables must occur only through their own square term in this
    constraint, in no other (the mask ``shared`` holds the variables of
    two or more constraints), and carry no nonvanishing assumption (the
    mask ``assumed``); the rotated coordinates (z+w, z-w) then split the
    stratum algebraically.
    """
    squares = p.summary().squares
    if len(squares) < 2:
        return None
    taken = shared | assumed
    order = sorted((v for v in squares if not taken >> v & 1), key=rank.__getitem__)
    pos = next((v for v in order if squares[v] > 0), None)
    neg = next((v for v in order if squares[v] < 0), None)
    if pos is None or neg is None:
        return None
    return pos, neg


def _definite(p: MPoly, assumed: int) -> str | int | None:
    """Detect sum-of-same-sign even powers: forces zeros or emptiness.

    Returns "empty", the mask of the variables forced to zero, or None.
    """
    shape = p.summary().definite
    if shape is None:
        return None
    sign, involved = shape
    e = p.constant_term()
    if e == 0:
        return "empty" if involved & assumed else involved
    if (e > 0) == (sign > 0):
        return "empty"
    return None


def beta_of(
    germ: MPoly,
    blocks: Sequence[str],
    n: int,
    target: int | str,
    budget: int | None = None,
) -> EngineOutcome:
    """Convenience wrapper: build the cell system and decompose it."""
    return decompose(build_system(germ, blocks, n, target), budget=budget)
