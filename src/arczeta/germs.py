"""Germ normal forms, canonical representatives, and zeta tables.

A :class:`GermSpec` names one germ from the supported families —
corank-1 chains, the corank-2 D/E families, the auxiliary cube and
``x1*x2^2`` models, the bare quadratic form, and the nonsimple ``J``
instances — together with a quadratic suspension signature (p, q).

:data:`FAMILY` is the one place a family is defined: its surface token,
corank, least k, number of signs, whether it is simple, its core
polynomial and its closed-form cells.  Validation, rendering,
``germ_poly``, ``formula_cell``, ``_dual``, the parser and the
classifier's enumerations all read it.  The rules that stay per family
are real exceptions: J's ``i`` and moduli, A's optional sign at even k,
and the A/D sign identity of ``_flip``.

Tables are assembled from two independent paths: closed formulas where
covered, and the stratification engine (the oracle) everywhere; the
closed forms' one reader, ``formula_cell``, keeps each as a shared
``Cell``.  The hybrid source cross-checks the two and treats
disagreement as a hard error; cells with neither path are explicitly
unavailable.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .engine import _LEAF, EngineOutcome, beta_of, effective_budget
from .formulas import (
    OutOfCoverage,
    arc_Ak,
    arc_Dk,
    arc_E,
    arc_G,
    arc_order2,
    arc_Q,
)
from .mpoly import MPoly
from .quadric import Sig
from .upoly import U_MINUS_1, UPoly

__all__ = [
    "FAMILY",
    "Family",
    "CHANNELS",
    "TARGETS",
    "CHANNEL_OF",
    "SOURCES",
    "GermSpec",
    "CrossCheckError",
    "germ_poly",
    "apply_signed_permutation",
    "canonicalize",
    "analytic_equiv",
    "formula_cell",
    "oracle_cell",
    "Cell",
    "ZetaTable",
    "zeta_table",
    "corank_index",
]

CHANNELS = ("plus", "minus", "naive")
#: The engine target of each channel: the leading coefficient is +1, -1,
#: or merely nonzero.
TARGETS: dict[str, int | str] = dict(zip(CHANNELS, (1, -1, "naive")))
CHANNEL_OF: dict[int | str, str] = {t: ch for ch, t in TARGETS.items()}
#: The cell sources of ``resolve_cell``.
SOURCES = ("formulas", "oracle", "hybrid", "auto")

_SIGNED = frozenset({1, -1})


def _csv(header: list[str], rows: list[list]) -> str:
    """CSV text with the csv module's default \\r\\n line ends; every CSV uses it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json(obj) -> str:
    """JSON text with sorted keys and two-space indents: the one JSON format.

    Every JSON output but the classification table's is written by it;
    ``ClassificationReport.to_json`` writes the same text straight from
    its pair records.  A value object (``UPoly``, ``Fraction``) raises
    ``TypeError``, so each is rendered with ``str`` first.
    """
    return json.dumps(obj, indent=2, sort_keys=True)


_SIGN_TEXT = {1: "+", -1: "-"}


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


@dataclass(frozen=True)
class Family:
    """Everything that sets one germ family apart; see :data:`FAMILY`."""

    token: str  # the family's name in germ expressions
    corank: int  # d = p + q + corank
    kmin: int | None  # the least k, or None when the family takes no k
    nsigns: int  # the number of +-1 signs
    simple: bool
    #: The core polynomial, without its suspension, in x1 (and x2).
    core: Callable[[GermSpec], MPoly]
    #: The closed-form cell (germ, n, target) -> value, or None: no formulas.
    cells: Callable[[GermSpec, int, int | str], UPoly] | None


def _x(e: int = 1) -> MPoly:
    return MPoly.var(0, e)


def _y(e: int = 1) -> MPoly:
    return MPoly.var(1, e)


def _jki_core(g: GermSpec) -> MPoly:
    k = g.k
    if g.i == 0:
        poly = _x(3) + _x(2) * _y(k) * g.param("b") + _y(3 * k) * g.param("c")
        tail = MPoly.zero()
        for m in range(0, k):
            a = g.param(f"a{m}")
            if a:
                tail = tail + _y(2 * k + 1 + m) * a
        return poly if tail.is_zero() else poly + _x() * tail
    poly = _x(3) + _x(2) * _y(k) * g.param("s")
    acc = MPoly.zero()
    for m in range(0, k + 1):
        a = g.param(f"a{m}")
        if a:
            acc = acc + _y(3 * k + g.i + m) * a
    return poly + acc


#: The one definition of each family, keyed by ``GermSpec.family``: token,
#: corank, least k, number of signs, simple, core polynomial, closed forms.
FAMILY: dict[str, Family] = {
    "Q": Family("Q", 0, None, 0, False,
                lambda g: MPoly.zero(),
                lambda g, n, t: arc_Q(n, t, g.sig)),
    "AK": Family("A", 1, 2, 1, True,
                 lambda g: _x(g.k + 1) * g.signs[0],
                 lambda g, n, t: arc_Ak(g.k, g.signs[0], n, t, g.sig)),
    "DK": Family("D", 2, 4, 2, True,
                 lambda g: _x() * _y(2) * g.signs[0] + _x(g.k - 1) * g.signs[1],
                 lambda g, n, t: arc_Dk(g.k, g.signs[0], g.signs[1], n, t, g.sig)),
    "E6": Family("E6", 2, None, 1, True,
                 lambda g: _x(3) + _y(4) * g.signs[0],
                 lambda g, n, t: arc_E("E6+" if g.signs[0] == 1 else "E6-", n, t, g.sig)),
    "E7": Family("E7", 2, None, 0, True,
                 lambda g: _x(3) + _x() * _y(3),
                 lambda g, n, t: arc_E("E7", n, t, g.sig)),
    "E8": Family("E8", 2, None, 0, True,
                 lambda g: _x(3) + _y(5),
                 lambda g, n, t: arc_E("E8", n, t, g.sig)),
    "CUBE": Family("CUBE", 2, None, 0, False,
                   lambda g: _x(3),
                   lambda g, n, t: arc_E("CUBE", n, t, g.sig)),
    "G": Family("G", 2, None, 0, False,
                lambda g: _x() * _y(2),
                lambda g, n, t: arc_G(n, t, g.sig)),
    "JKI": Family("J", 2, 2, 0, False,
                  _jki_core,
                  None),
}


@dataclass(frozen=True)
class GermSpec:
    """One germ: family data plus the quadratic suspension Q_{p,q}.

    The hash is that of the field tuple, computed once when the spec is
    built and kept; equality, ``repr`` and ``dataclasses.replace`` go by
    the fields.  Pickling and copying rebuild a spec from its fields, so
    the hash is computed afresh in the process that loads it.
    """

    family: str
    sig: Sig
    k: int | None = None
    i: int | None = None
    signs: tuple[int, ...] = ()
    params: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self) -> None:
        # a spec is hashed, cached and rendered: list arguments become tuples
        for name in ("sig", "signs", "params"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # 2.0 or True would compare and hash equal to the int spec, so no
        # cache could tell them apart
        ints = {
            "k": () if self.k is None else (self.k,),
            "i": () if self.i is None else (self.i,),
            "sig": self.sig,
            "signs": self.signs,
        }
        for name, values in ints.items():
            if any(type(v) is not int for v in values):
                raise TypeError(f"{name} must hold int values, got {getattr(self, name)!r}")
        fam = FAMILY.get(self.family)
        if fam is None:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.sig) != 2:
            raise ValueError(f"signature must be a pair (p, q), got {self.sig}")
        p, q = self.sig
        if p < 0 or q < 0:
            raise ValueError(f"signature entries must be >= 0, got {self.sig}")
        if fam.kmin is None:
            if self.k is not None:
                raise ValueError(f"family {fam.token} takes no k, got {self.k}")
        elif self.k is None or self.k < fam.kmin:
            raise ValueError(f"family {fam.token} needs k >= {fam.kmin}, got {self.k}")
        if len(self.signs) != fam.nsigns:
            raise ValueError(
                f"family {fam.token} takes {fam.nsigns} sign(s), got {len(self.signs)}"
            )
        if not _SIGNED.issuperset(self.signs):
            raise ValueError(f"family {fam.token} signs must be +1 or -1, got {self.signs}")
        if self.family == "JKI":
            if self.i is None or self.i < 0:
                raise ValueError(f"family {fam.token} needs i >= 0, got {self.i}")
            object.__setattr__(
                self, "params", _normalize_jki(self.k, self.i, self.params)
            )
        elif self.i is not None:
            raise ValueError(f"family {fam.token} takes no i, got {self.i}")
        elif self.params:
            raise ValueError(f"family {fam.token} takes no coefficient parameters")
        # every cache lookup hashes its spec, so the hash of the fields is kept
        object.__setattr__(
            self, "_hash",
            hash((self.family, self.sig, self.k, self.i, self.signs, self.params)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # by the fields alone: a kept hash is valid only in the process that made it
        return GermSpec, (self.family, self.sig, self.k, self.i, self.signs, self.params)

    # -- derived data ---------------------------------------------------

    @property
    def d(self) -> int:
        p, q = self.sig
        return p + q + FAMILY[self.family].corank

    @property
    def corank(self) -> int:
        return FAMILY[self.family].corank

    @property
    def is_simple(self) -> bool:
        return FAMILY[self.family].simple

    def param(self, name: str, default: Fraction | int = 0) -> Fraction:
        for n, v in self.params:
            if n == name:
                return v
        return Fraction(default)

    def render(self) -> str:
        """The germ expression, ``token(k,i,signs; params) (+) Q(p,q)``."""
        k, signs = self.k, self.signs
        if self.family == "AK" and k % 2 == 0 and signs == (1,):
            signs = ()  # A's sign is optional at even k, and "+" is omitted
        args = [_SIGN_TEXT[s] for s in signs]
        if self.i is not None:
            args.insert(0, str(self.i))
        if k is not None:
            args.insert(0, str(k))
        inner = ",".join(args)
        if self.params:
            inner += "; " + ", ".join(f"{n}={_fmt_coeff(v)}" for n, v in self.params)
        head = FAMILY[self.family].token
        p, q = self.sig
        return f"{head}({inner}) (+) Q({p},{q})" if inner else f"{head} (+) Q({p},{q})"


def _normalize_jki(
    k: int, i: int, params: tuple[tuple[str, Fraction], ...]
) -> tuple[tuple[str, Fraction], ...]:
    """Materialize defaults and validate the J-family moduli.

    J(k,0) is isolated when its cubic x^3 + b x^2 y^k + c y^(3k) has no repeated
    factor, that is when -c(4b^3 + 27c) != 0: for every rational b at c = 1.
    """
    given: dict[str, Fraction] = {}
    for name, value in params:
        # as for k and i: 0.1, True or "1/2" would pass Fraction() silently
        if type(value) not in (int, Fraction):
            raise TypeError(f"params must hold int values or Fractions, got {name}={value!r}")
        if name in given:
            raise ValueError(f"J parameter {name!r} is given more than once")
        given[name] = value
    out: dict[str, Fraction] = {}
    known: set[str]
    if i == 0:
        known = {"b", "c"} | {f"a{m}" for m in range(0, k)}
        b = Fraction(given.get("b", 1))
        c = Fraction(given.get("c", 1))
        if c == 0:
            raise ValueError("J(k,0) requires a nonzero x2^(3k) coefficient")
        if 4 * b**3 + 27 * c == 0:
            raise ValueError(f"J(k,0) requires 4b^3 + 27c != 0, got b={b}, c={c}")
        out["b"] = b
        out["c"] = c
        for m in range(0, k):
            a = Fraction(given.get(f"a{m}", 0))
            if a:
                if k == 2:
                    raise ValueError("J(2,0) has no free A-coefficients")
                out[f"a{m}"] = a
    else:
        known = {"s", "a0"} | {f"a{m}" for m in range(1, k + 1)}
        s = Fraction(given.get("s", 1))
        if s not in (1, -1):
            raise ValueError("J(k,i) sign parameter s must be +1 or -1")
        a0 = Fraction(given.get("a0", 1))
        if a0 == 0:
            raise ValueError("J(k,i) with i > 0 requires a0 != 0")
        out["s"] = s
        out["a0"] = a0
        for m in range(1, k + 1):
            a = Fraction(given.get(f"a{m}", 0))
            if a:
                out[f"a{m}"] = a
    unknown = set(given) - known
    if unknown:
        raise ValueError(f"unknown J-family parameters: {sorted(unknown)}")
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# Polynomial models
# ---------------------------------------------------------------------------


def _suspension(first_y: int, sig: Sig) -> MPoly:
    p, q = sig
    poly = MPoly.zero()
    for idx in range(p):
        poly = poly + MPoly.var(first_y + idx, 2)
    for idx in range(q):
        poly = poly - MPoly.var(first_y + p + idx, 2)
    return poly


@lru_cache(maxsize=None)
def germ_poly(g: GermSpec) -> tuple[MPoly, tuple[str, ...]]:
    """The germ as a polynomial in ambient variables, with block labels.

    Built once per spec: every cell of a germ asks for it, and an
    ``MPoly`` never changes, so all of them share it.
    """
    fam = FAMILY[g.family]
    blocks = ("a", "b")[: fam.corank] + ("c",) * sum(g.sig)
    return fam.core(g) + _suspension(fam.corank, g.sig), blocks


def apply_signed_permutation(
    poly: MPoly, blocks: tuple[str, ...], perm: list[int], flips: list[int]
) -> tuple[MPoly, tuple[str, ...]]:
    """Relabel ambient variable j to perm[j] and scale it by flips[j] = ±1."""
    d = len(blocks)
    if sorted(perm) != list(range(d)) or len(flips) != d:
        raise ValueError("perm must be a permutation of the ambient variables")
    if any(f not in (1, -1) for f in flips):
        raise ValueError("flips must be +1/-1")
    out = MPoly.zero()
    for mono, c in poly.terms():
        coeff = c
        parts = MPoly.const(1)
        for v, e in mono:
            coeff *= flips[v] ** e
            parts = parts * MPoly.var(perm[v], e)
        out = out + parts * coeff
    new_blocks = [""] * d
    for j in range(d):
        new_blocks[perm[j]] = blocks[j]
    return out, tuple(new_blocks)


# ---------------------------------------------------------------------------
# Canonical representatives
# ---------------------------------------------------------------------------


def _flip(g: GermSpec) -> GermSpec:
    """The normal form of g(-x1, x2, ...): the A/D sign identity.

    x1 -> -x1 flips A_k's sign at even k, and D_k's e1, with e2 too when
    k - 1 is odd.  Every other germ is returned as it is.
    """
    if g.family == "AK" and g.k % 2 == 0:
        signs = (-g.signs[0],)
    elif g.family == "DK":
        e1, e2 = g.signs
        signs = (-e1, -e2 if g.k % 2 == 0 else e2)
    else:
        return g
    return GermSpec(g.family, g.sig, g.k, g.i, signs, g.params)


def canonicalize(g: GermSpec) -> GermSpec:
    """Canonical class representative under the x1 -> -x1 sign identity."""
    return _flip(g) if g.signs and g.signs[0] == -1 else g


def analytic_equiv(g1: GermSpec, g2: GermSpec) -> bool:
    """Same blow-Nash class under the family sign identities (simple only)."""
    for g in (g1, g2):
        if not g.is_simple:
            raise ValueError(
                f"analytic equivalence is classified only for simple germs, got {g.render()}"
            )
    return canonicalize(g1) == canonicalize(g2)


# ---------------------------------------------------------------------------
# Cell computation
# ---------------------------------------------------------------------------


class CrossCheckError(RuntimeError):
    """Formula and oracle disagree on a cell: a genuine defect somewhere."""

    def __init__(
        self, germ: GermSpec, n: int, channel: str, formula: UPoly, oracle: UPoly
    ) -> None:
        super().__init__(
            f"cell ({germ.render()}, n={n}, {channel}): formula {formula} "
            f"!= oracle {oracle}"
        )
        self.germ = germ
        self.n = n
        self.channel = channel
        self.formula = formula
        self.oracle = oracle


def _check_channel(channel: str) -> None:
    """Raise ``ValueError`` for a channel that is not one of ``CHANNELS``."""
    if channel not in TARGETS:
        raise ValueError(f"unknown channel {channel!r}")


@lru_cache(maxsize=None)
def formula_cell(g: GermSpec, n: int, channel: str) -> Cell:
    """The closed-form cell, kept and shared: ``Cell(value, "formula")``
    where the formulas cover it, else unavailable with their message."""
    _check_channel(channel)
    cells = FAMILY[g.family].cells
    if cells is None:
        return Cell(None, "unavailable", f"no closed forms for family {g.family}")
    try:
        return Cell(cells(g, n, TARGETS[channel]), "formula")
    except OutOfCoverage as exc:
        return Cell(None, "unavailable", str(exc))


_SWAP = {"plus": "minus", "minus": "plus", "naive": "naive"}


def _dual(g: GermSpec) -> GermSpec:
    """The germ -g, up to a signed permutation of its variables.

    A_n^c(-g) = A_n^{-c}(g), so a cell of g is the swapped-channel cell
    of its dual.  The signature swaps and every sign negates; J(k,0)
    negates b and c (x -> -x absorbs the rest) and J(k,i>0) negates s
    and every a_m.  Families without signs (Q, E7, E8, CUBE, G) are
    self-dual.
    """
    sig = g.sig[::-1]
    if g.family == "JKI":
        params = tuple(
            (name, -v if g.i > 0 or name in ("b", "c") else v) for name, v in g.params
        )
        return GermSpec(g.family, sig, g.k, g.i, g.signs, params)
    return GermSpec(g.family, sig, g.k, g.i, tuple(-s for s in g.signs), g.params)


@lru_cache(maxsize=None)
def _relatives(g: GermSpec) -> tuple[dict[str, tuple[GermSpec, str]], ...]:
    """The least cell of each of g's orbits, built once per germ.

    Entry ``[n % 2][channel]`` is the least cell of the orbit of
    (g, n, channel) (see ``_representative``).  At even n each channel
    has its own orbit, and so has the naive channel at any n.  At odd n
    the plus and minus cells of every relative share one orbit, so both
    signed channels read the least relative's plus cell.  Family, k and
    i are the same across an orbit, so cells are ordered by signature,
    signs, parameters, then channel.
    """

    def order(cell: tuple[GermSpec, str]) -> tuple:
        h, ch = cell
        return h.sig, h.signs, h.params, CHANNELS.index(ch)

    dual = _dual(g)
    flip, flip_dual = _flip(g), _flip(dual)
    even = {
        ch: min([(g, ch), (dual, _SWAP[ch]), (flip, ch), (flip_dual, _SWAP[ch])], key=order)
        for ch in CHANNELS
    }
    signed = min(even["plus"], even["minus"], key=order)
    return even, dict(even, plus=signed, minus=signed)


def _representative(g: GermSpec, n: int, channel: str) -> tuple[GermSpec, str]:
    """The least cell of the orbit of (g, n, channel) under the sign symmetries.

    Negation maps (g, c) to (dual g, -c); x1 -> -x1 maps g to ``_flip(g)``
    in the same channel; at odd n, t -> -t maps the plus cell of a germ to
    its minus cell.  Family, k and i are the same across an orbit.  The
    least cells are kept per germ (``_relatives``), so this is one lookup.
    """
    return _relatives(g)[n % 2][channel]


def _naive_from_plus(plus: EngineOutcome) -> EngineOutcome:
    """The naive outcome at odd n, re-expressed from the plus run of the cell.

    At odd n, (gamma, lambda) -> gamma(lambda*t) is a Nash isomorphism
    A_n^{+1} x R* -> A_n, and beta(R*) = u - 1, so naive = (u - 1)*plus in
    Z[u].  The plus run's steps move one level deeper under one leading
    step, and each leaf is multiplied by u - 1, so ``value``, ``leaves``,
    ``audit()`` and ``trace`` stay consistent.
    """
    steps = [(0, "[odd order] naive = (u-1)*plus", (), None)]
    steps += [
        (depth + 1, template, var_ids, U_MINUS_1 * arg if template == _LEAF else arg)
        for depth, template, var_ids, arg in plus.steps
    ]
    return replace(plus, value=U_MINUS_1 * plus.value, steps=steps)


@lru_cache(maxsize=None)
def _oracle_cached(g: GermSpec, n: int, channel: str, budget: int) -> EngineOutcome:
    """The engine outcome of one cell: the one oracle cache, keyed on the cell.

    A miss runs the engine only if the cell is its orbit's least
    (``_representative``); any other member reads the least cell's entry.
    An odd-order naive cell then reads its plus cell's entry, and if that
    run completed, derives its outcome from it (``_naive_from_plus``);
    if it failed, the engine runs the naive cell itself.  So clearing this
    cache forgets every member, every representative and every plus run a
    naive cell was read from.
    """
    _check_channel(channel)
    rep, rep_channel = _representative(g, n, channel)
    if (rep, rep_channel) != (g, channel):
        return _oracle_cached(rep, n, rep_channel, budget)
    if n % 2 and channel == "naive":
        plus = _oracle_cached(g, n, "plus", budget)
        if plus.ok:
            return _naive_from_plus(plus)
    poly, blocks = germ_poly(g)
    out = beta_of(poly, blocks, n, TARGETS[channel], budget=budget)
    if out.ok:
        return out
    return replace(out, detail=f"on {g.render()} n={n} {channel}: {out.detail}")


def oracle_cell(
    g: GermSpec, n: int, channel: str, budget: int | None = None
) -> EngineOutcome:
    """Engine-computed cell value, cached in ``_oracle_cached`` per cell.

    The stratum budget is ``effective_budget(budget)``: ``budget`` when
    given, else read from the environment on this call.  It is resolved
    before the cache lookup and is part of its key, so an outcome
    computed under one budget is never served under another.

    Every cell of a symmetry orbit is the same set up to a linear
    automorphism of the truncated arcs, so its virtual Poincaré
    polynomial is the same.  The engine runs once per orbit, on its least
    cell, and every member holds that one outcome, a failure included; a
    failure's detail names the cell it ran on, which may be another
    member's.  At odd n a naive cell is (u - 1) times its plus cell, read
    from the plus outcome when that run completed.  A warm lookup is one
    cache hit: it computes no orbit.  An unknown channel raises
    ``ValueError``.
    """
    return _oracle_cached(g, n, channel, effective_budget(budget))


# An engine-outcome source for resolve_cell: (germ, n, channel) -> outcome.
Oracle = Callable[[GermSpec, int, str], EngineOutcome]


def _table_oracle(source: str) -> Oracle | None:
    """The oracle one table's cells share: ``oracle_cell`` at the budget read now.

    The budget cannot change within a table, so it is read once per
    table, not once per cell.  None under ``formulas``, which never
    reaches the engine, and for an unknown source, which ``resolve_cell``
    then rejects.
    """
    if source == "formulas" or source not in SOURCES:
        return None
    budget = effective_budget()
    return lambda g, n, channel: oracle_cell(g, n, channel, budget)


@dataclass(frozen=True, slots=True)
class Cell:
    value: UPoly | None
    provenance: str  # "formula" | "oracle" | "unavailable"
    note: str = ""


def resolve_cell(
    g: GermSpec, n: int, channel: str, source: str, oracle: Oracle | None = None
) -> Cell:
    """One table cell under the requested source policy.

    ``formulas``: closed form or unavailable.  ``oracle``: engine or
    unavailable.  ``hybrid``: formula where covered (cross-checked
    against the oracle; disagreement raises), oracle elsewhere.
    ``auto``: formula where covered (unchecked), oracle elsewhere —
    the fast path used by classification scans.

    ``oracle`` stands in for ``oracle_cell`` as the source of engine
    outcomes, e.g. one that collects traces.

    The closed form is the ``Cell`` that ``formula_cell`` keeps; under
    ``formulas``, and under ``auto`` where it is covered, that very
    object is returned.  An unknown source or channel raises
    ``ValueError`` before any cache or engine is consulted.
    """
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}")
    _check_channel(channel)
    if oracle is None:
        oracle = oracle_cell
    value = None
    if source != "oracle":
        formula = formula_cell(g, n, channel)
        value = formula.value
        if source == "formulas" or (source == "auto" and value is not None):
            return formula
    out = oracle(g, n, channel)
    if value is None:
        if out.ok:
            return Cell(out.value, "oracle")
        return Cell(None, "unavailable", f"{out.failure}: {out.detail}")
    if not out.ok:
        return Cell(value, "formula", f"cross-check unavailable ({out.failure})")
    if out.value != value:
        raise CrossCheckError(g, n, channel, value, out.value)
    return Cell(value, "formula", "oracle-checked")


# ---------------------------------------------------------------------------
# Zeta tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaTable:
    germ: GermSpec
    N: int
    source: str
    rows: tuple[tuple[int, dict[str, Cell]], ...]

    @property
    def d(self) -> int:
        return self.germ.d

    def cell(self, n: int, channel: str) -> Cell:
        _check_channel(channel)
        for row_n, cells in self.rows:
            if row_n == n:
                return cells[channel]
        raise KeyError(f"no row n={n}")

    def unavailable(self) -> list[tuple[int, str]]:
        return [
            (n, ch)
            for n, cells in self.rows
            for ch in CHANNELS
            if cells[ch].provenance == "unavailable"
        ]

    def z_text(self, channel: str) -> str:
        """Zeta polynomial truncated at N, omitting unavailable cells."""
        _check_channel(channel)
        parts = []
        skipped = []
        for n, cells in self.rows:
            cell = cells[channel]
            if cell.value is None:
                skipped.append(n)
            elif not cell.value.is_zero():
                parts.append(f"({cell.value})*T^{n}")
        body = " + ".join(parts) if parts else "0"
        note = f"   [no value at T^{','.join(map(str, skipped))}]" if skipped else ""
        return f"Z(T) = {body} + O(T^{self.N + 1}){note}"

    def to_json(self) -> str:
        rows = []
        for n, cells in self.rows:
            row: dict = {"n": n}
            prov = {}
            for ch in CHANNELS:
                cell = cells[ch]
                row[ch] = str(cell.value) if cell.value is not None else None
                prov[ch] = cell.provenance
                if cell.note:
                    prov[ch] += f" ({cell.note})"
            row["provenance"] = prov
            rows.append(row)
        germ = self.germ.render()
        return _json(dict(germ=germ, d=self.d, N=self.N, source=self.source, rows=rows))

    def to_csv(self) -> str:
        label = self.germ.render()
        rows = []
        for n, cells in self.rows:
            for ch in CHANNELS:
                cell = cells[ch]
                value = str(cell.value) if cell.value is not None else ""
                rows.append([label, self.d, n, ch, value, cell.provenance])
        return _csv(["germ", "d", "n", "channel", "value", "provenance"], rows)

    def to_text(self) -> str:
        def show(cell: Cell) -> str:
            return f"<{cell.provenance}>" if cell.value is None else str(cell.value)

        rows = [(n, {ch: show(cells[ch]) for ch in CHANNELS}) for n, cells in self.rows]
        # 34 wide, or wider where a value needs it: two spaces always follow one
        plus, minus = (
            max([34] + [len(shown[ch]) + 2 for _, shown in rows]) for ch in ("plus", "minus")
        )
        lines = [f"germ: {self.germ.render()}   d={self.d}   source={self.source}"]
        lines.append(f"{'n':>3}  {'plus':<{plus}}{'minus':<{minus}}naive")
        for n, shown in rows:
            lines.append(
                f"{n:>3}  {shown['plus']:<{plus}}{shown['minus']:<{minus}}{shown['naive']}"
            )
        return "\n".join(lines) + "\n"


def zeta_table(
    g: GermSpec, N: int, source: str = "hybrid", oracle: Oracle | None = None
) -> ZetaTable:
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if oracle is None:
        oracle = _table_oracle(source)
    rows = []
    for n in range(2, N + 1):
        cells = {ch: resolve_cell(g, n, ch, source, oracle=oracle) for ch in CHANNELS}
        rows.append((n, cells))
    return ZetaTable(germ=g, N=N, source=source, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Corank and index, recovered from the n=2 row
# ---------------------------------------------------------------------------


def corank_index(g: GermSpec) -> tuple[int, Sig]:
    """Recover (corank, (p,q)) from the germ's computed n=2 coefficients.

    The order-2 cells are computed by the oracle, then matched against
    the closed forms over all signatures with p+q <= d.
    """
    d = g.d
    observed = {}
    for ch in CHANNELS:
        out = oracle_cell(g, 2, ch)
        if not out.ok:
            raise RuntimeError(f"oracle failed on n=2 cell ({ch}): {out.detail}")
        observed[ch] = out.value
    matches = []
    for p in range(d + 1):
        for q in range(d + 1 - p):
            ok = all(
                arc_order2(d, (p, q), TARGETS[ch]) == observed[ch] for ch in CHANNELS
            )
            if ok:
                matches.append((p, q))
    if len(matches) != 1:
        raise RuntimeError(
            f"n=2 row of {g.render()} matched signatures {matches}; expected exactly one"
        )
    sig = matches[0]
    return d - sig[0] - sig[1], sig
