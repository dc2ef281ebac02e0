"""Closed-form arc-space coefficient formulas.

Each function returns the virtual Poincaré polynomial of a truncated
arc space cell for one germ family.  Two variants exist where the
published closed forms disagree with their own recursions or with
direct stratification: the proof-derived forms implemented here are
authoritative, and the as-stated forms are kept in :data:`VARIANTS`
for the verification suite.  A variant's derived reading is the closed
form of its ``cell``, the one the tables serve.

Targets: ``+1`` / ``-1`` select the signed cells A_n^{±1} (the order-n
coefficient equals ±1); ``"naive"`` selects A_n (order exactly n).  The
three cells differ only in the target set of that coefficient, {+1},
{-1} or R*, and each formula is written once over it: the target enters
only through ``_lead`` (a free leading coefficient), ``_Y_at`` (the
quadric), ``_power_at`` (the power-plus-quadric) and ``_curve_at`` (the
D-curve).  E6's order-4 cell, closed only for the naive target, is the
one coverage rule that reads the target itself.

The two jet bases, :func:`arc_Q` and :func:`arc_G`, are memoised,
keyed by (l, t, sig) with ``sig`` a tuple.  By the jet lemma the n-cell
of A_k is u^n * arc_Q(n, t, sig) for n <= k and the n-cell of D_k is
arc_G(n, t, sig) for n <= k-2, so every k and sign of a table shares one
base value per key.  The values are immutable; the caches live until
``cache_clear`` (a cold benchmark request empties them).

Cells outside a formula's declared coverage raise :class:`OutOfCoverage`
("use the stratification oracle"); formulas never extrapolate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .quadric import (
    Sig,
    _check_sign,
    beta_D_curve,
    beta_D_curve_zero,
    beta_power_fiber,
    beta_power_zero,
    beta_Y_compl,
    beta_Y_fiber,
    beta_Y_star,
)
from .upoly import ONE, U_MINUS_1, UPoly, ZERO, geom_sum, u_pow

__all__ = [
    "Target",
    "OutOfCoverage",
    "arc_Q",
    "arc_Q_recursive",
    "arc_order2",
    "arc_Ak",
    "arc_G",
    "arc_Dk",
    "arc_D4_order4",
    "arc_E",
    "FormulaVariant",
    "GRID_SIGS",
    "VARIANTS",
]

Target = int | str  # +1 | -1 | "naive"


class OutOfCoverage(Exception):
    """The requested cell has no closed form; route it to the oracle."""


def _check_target(t: Target) -> Target:
    if t not in (1, -1, "naive"):
        raise ValueError(f"target must be +1, -1 or 'naive', got {t!r}")
    return t


def _check_l(l: int) -> int:
    if l < 2:
        raise ValueError(f"arc order must be >= 2, got {l}")
    return l


# ---------------------------------------------------------------------------
# The target sets: {t} for t = +1, -1 and R* for naive
# ---------------------------------------------------------------------------


def _lead(t: Target) -> UPoly:
    """beta of the target set of a free leading coefficient."""
    return U_MINUS_1 if _check_target(t) == "naive" else ONE


def _Y_at(sig: Sig, t: Target) -> UPoly:
    """beta of {Q_{p,q} in the target set}."""
    return beta_Y_compl(sig) if t == "naive" else beta_Y_fiber(sig, t)


def _power_at(m: int, s: int, sig: Sig, t: Target) -> UPoly:
    """beta of {s*x^m + Q_{p,q}(y) in the target set} in R^{p+q+1}."""
    if t == "naive":
        return u_pow(sum(sig) + 1) - beta_power_zero(m, s, sig)
    return beta_power_fiber(m, s, sig, t)


def _curve_at(k: int, s: int, t: Target) -> UPoly:
    """beta of {x1*x2^2 + s*x1^(k-1) in the target set} in R^2."""
    return u_pow(2) - beta_D_curve_zero(k, s) if t == "naive" else beta_D_curve(k, s, t)


# ---------------------------------------------------------------------------
# Quadratic suspensions Q_{p,q}
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def arc_Q(l: int, t: Target, sig: Sig) -> UPoly:
    """Cell of order l >= 2 for the pure quadratic form Q_{p,q}.

    Memoised on (l, t, sig), ``sig`` a tuple: it is the jet base of every
    A_k cell with l <= k (typed, so ``2.0`` is not served as ``2``).
    """
    lead = _lead(t)
    _check_l(l)
    r = sum(sig)
    n, odd = divmod(l, 2)
    total = ZERO if odd else u_pow(n * r) * _Y_at(sig, t)
    star = beta_Y_star(sig)
    if star.is_zero():
        return total
    acc = ZERO
    for s in range(1, n + odd):
        acc += u_pow((l - s) * (r - 1) + s)
    return total + lead * star * acc


def arc_Q_recursive(l: int, eps: int, sig: Sig) -> UPoly:
    """Same signed cells by the two-step peeling recursion (base l = 2, 3)."""
    _check_l(l)
    p, q = sig
    star = beta_Y_star(sig)
    if l == 2:
        return u_pow(p + q) * beta_Y_fiber(sig, eps)
    if l == 3:
        return ZERO if star.is_zero() else u_pow(2 * (p + q) - 1) * star
    head = ZERO
    if not star.is_zero():
        head = u_pow((l - 1) * (p + q - 1) + 1) * star
    return head + u_pow(p + q) * arc_Q_recursive(l - 2, eps, sig)


def arc_order2(d: int, sig: Sig, t: Target) -> UPoly:
    """The order-2 cell of any germ with quadratic part Q_{p,q} in ambient R^d."""
    _check_target(t)
    r = sum(sig)
    if d < r:
        raise ValueError(f"ambient dimension {d} below rank {r}")
    return u_pow(2 * d - r) * _Y_at(sig, t)


# ---------------------------------------------------------------------------
# A_k: s*x^(k+1) + Q_{p,q}(y)
# ---------------------------------------------------------------------------


def _power_step(m: int, s: int, sig: Sig, t: Target) -> UPoly:
    """The correction where the power s*x^m first enters an even-order cell
    (A_k at l = k+1 and D_k at l = k-1, for odd k)."""
    return _power_at(m, s, sig, t) - u_pow(1) * _Y_at(sig, t)


def arc_Ak(k: int, s: int, l: int, t: Target, sig: Sig) -> UPoly:
    """Cell of order l for the corank-1 germ s*x^(k+1) + Q_{p,q}(y).

    Coverage: 2 <= l <= k+1.  Beyond that the classification needs no
    closed form and the oracle is the only route.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _check_sign(s)
    lead = _lead(t)
    _check_l(l)
    r = sum(sig)
    if l > k + 1:
        raise OutOfCoverage(f"A_k cell l={l} > k+1={k + 1}: use the oracle")
    base = u_pow(l) * arc_Q(l, t, sig)
    if l <= k:
        return base
    n = l // 2
    if k % 2 == 0:  # l = 2n+1 odd; the extra top-power term is sign-free
        return base + lead * u_pow((n + 1) * r + 2 * n)
    return base + u_pow(n * r + 2 * n - 1) * _power_step(k + 1, s, sig, t)


# ---------------------------------------------------------------------------
# G = x1*x2^2 + Q_{p,q}(y) and the D_k family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def arc_G(l: int, t: Target, sig: Sig) -> UPoly:
    """Cell of order l >= 2 for G = x1*x2^2 + Q_{p,q}(y).

    Memoised on (l, t, sig), ``sig`` a tuple: it is the jet base of every
    D_k cell with l <= k-2 (typed, as :func:`arc_Q`).
    """
    lead = _lead(t)
    _check_l(l)
    r = sum(sig)
    star = beta_Y_star(sig)
    n, odd = divmod(l, 2)
    total = ZERO
    for m in range(2 - odd, n + 1):  # the peeling levels: from 1 at odd l, 2 at even
        e = (2 * m - 1 + odd) * r + 2 * m + 1 + odd
        level = u_pow(e + 1) * star + U_MINUS_1 * u_pow(e)
        total += u_pow((n - m) * (r + 3)) * level
    if odd:
        return lead * total
    return lead * total + u_pow(n * r + 3 * n + 1) * _Y_at(sig, t)


def arc_Dk(k: int, e1: int, e2: int, l: int, t: Target, sig: Sig) -> UPoly:
    """Cell of order l for g_k = x1*(e1*x2^2 + e2*x1^(k-2)) + Q_{p,q}(y).

    Coverage: 2 <= l <= k-1, plus the special order-4 cell of g_4.
    The substitution x1 -> -x1 shows that for even k only e1*e2 matters
    in the order-(k-1) curve term, and for odd k only e2.
    """
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    _check_sign(e1, "e1")
    _check_sign(e2, "e2")
    lead = _lead(t)
    _check_l(l)
    r = sum(sig)
    if l == k == 4:
        return arc_D4_order4(e1 * e2, t, sig)
    if l >= k:
        raise OutOfCoverage(f"D_k cell l={l} >= k={k}: use the oracle")
    base = arc_G(l, t, sig)
    if l < k - 1:
        return base
    # l == k - 1
    if k % 2 == 0:
        n = (k - 2) // 2
        corr = _curve_at(k, e1 * e2, t) - lead * U_MINUS_1
        return base + u_pow((n + 1) * r + 3 * n + 1) * corr
    n = (k - 1) // 2
    return base + u_pow(n * r + 3 * n) * _power_step(k - 1, e2, sig, t)


def arc_D4_order4(cls: int, t: Target, sig: Sig) -> UPoly:
    """The order-4 cell of g_4, by equivalence class sign cls = e1*e2."""
    _check_sign(cls, "class sign")
    lead = _lead(t)
    r = sum(sig)
    alpha = 1 if cls == 1 else 3
    head = u_pow(3 * r + 6) * beta_Y_star(sig) + alpha * U_MINUS_1 * u_pow(3 * r + 5)
    return lead * head + u_pow(2 * r + 6) * _Y_at(sig, t)


# ---------------------------------------------------------------------------
# E6/E7/E8 and the bare cube x1^3 + Q_{p,q}(y)
# ---------------------------------------------------------------------------

_E_NAMES = ("E6+", "E6-", "E7", "E8", "CUBE")


def arc_E(which: str, l: int, t: Target, sig: Sig) -> UPoly:
    """Covered cells for the E-family germs and the bare cube ("CUBE").

    Coverage: l=3 all targets for every germ; l=4 naive for all and
    signed for E7/E8/CUBE only; l=5 for E7/E8/CUBE only.
    """
    if which not in _E_NAMES:
        raise ValueError(f"unknown E germ {which!r}")
    lead = _lead(t)
    _check_l(l)
    p, q = sig
    r = p + q
    if l == 2:
        return arc_order2(r + 2, sig, t)
    star = beta_Y_star(sig)
    if l == 3:  # shared by every corank-2 germ whose 3-jet is x1^3 + Q
        return lead * u_pow(2 * r + 5) * (star + 1)
    if l == 4:
        if which in ("E6+", "E6-"):
            if t != "naive":
                raise OutOfCoverage("signed order-4 cell for E6: use the oracle")
            shifted = (p + 1, q) if which == "E6+" else (p, q + 1)
            tail = u_pow(2 * r + 6) * _Y_at(shifted, t)
        else:
            tail = u_pow(2 * r + 7) * _Y_at(sig, t)
        return lead * u_pow(3 * r + 6) * star + tail
    if l == 5 and which in ("E7", "E8", "CUBE"):
        top = star * (u_pow(4 * r + 7) + u_pow(3 * r + 8))
        if which == "E7":
            top += U_MINUS_1 * u_pow(3 * r + 7)
        elif which == "E8":
            top += u_pow(3 * r + 8)
        return lead * top
    if which == "CUBE":
        raise OutOfCoverage(f"cube cell l={l} > 5: use the oracle")
    raise OutOfCoverage(f"E cell ({which}, l={l}, {t!r}): use the oracle")


# ---------------------------------------------------------------------------
# Variants: as-stated vs proof-derived closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaVariant:
    """A published closed form whose stated and proof-derived versions differ.

    The proof-derived reading of ``args`` is the closed-form cell that
    ``cell(*args)`` names, as the tables serve it.
    """

    id: str
    description: str
    stated: Callable[..., UPoly]
    # the args tuples on which the suite compares both against the oracle
    domain: tuple[tuple, ...]
    # args -> (GermSpec fields, n, target) of the engine cell the args name
    cell: Callable[..., tuple[dict, int, Target]]


def _quadra_even_stated(l: int, eps: int, sig: Sig) -> UPoly:
    p, q = sig
    n = l // 2
    star = beta_Y_star(sig)
    total = u_pow(n * (p + q) + 2 * n) * beta_Y_fiber(sig, eps)
    if not star.is_zero():
        acc = ZERO
        for s in range(1, n):
            acc += u_pow((2 * n - s) * (p + q - 1) + s)
        total += star * acc
    return total


def _lem7_A3_stated(t: Target, sig: Sig) -> UPoly:
    r = sum(sig)
    return _lead(t) * (u_pow(2 * r + 7) * beta_Y_star(sig) + u_pow(2 * r + 5))


def _lem2_odd_k_stated(k: int, s: int, eps: int, sig: Sig) -> UPoly:
    # first term read with the fixed +1 fiber instead of the eps-dependent one
    n = (k + 1) // 2
    base = u_pow(2 * n) * arc_Q(2 * n, +1, sig)
    return base + u_pow(n * sum(sig) + 2 * n - 1) * _power_step(k + 1, s, sig, eps)


def _lem4_odd_stated(l: int, eps: int, sig: Sig) -> UPoly:
    p, q = sig
    r = p + q
    n = (l - 1) // 2
    star = beta_Y_star(sig)
    return (
        u_pow((n + 2) * r + 3 * n) * star * geom_sum(r - 1, n)
        + U_MINUS_1 * u_pow((n + 3) * r + 3 * n - 1) * geom_sum(r - 1, n - 1)
        + U_MINUS_1 * u_pow((n + 1) * r + 3 * n + 1)
    )


def _lem4_even_stated(l: int, eps: int, sig: Sig) -> UPoly:
    p, q = sig
    r = p + q
    n = l // 2
    star = beta_Y_star(sig)
    return (
        u_pow((n + 2) * r + 3 * n) * star * geom_sum(r - 1, n - 1)
        + U_MINUS_1 * u_pow((n + 3) * r + 3 * n - 1) * geom_sum(r - 1, n - 1)
        + u_pow(n * r + 3 * n + 1) * beta_Y_fiber(sig, eps)
    )


def _lem4_stated(l: int, eps: int, sig: Sig) -> UPoly:
    return _lem4_odd_stated(l, eps, sig) if l % 2 else _lem4_even_stated(l, eps, sig)


def _lem5_keven_00_stated(k: int, e1: int, e2: int, eps: int) -> UPoly:
    n = k // 2
    return arc_G(k - 1, eps, (0, 0)) + u_pow(3 * n - 1)


def _lem5_keven_curve_stated(k: int, e1: int, e2: int, eps: int, sig: Sig) -> UPoly:
    # arc_Dk's order-(k-1) cell read with the published curve fiber 2u
    n = (k - 2) // 2
    corr = 2 * u_pow(1) - _lead(eps) * U_MINUS_1
    return arc_G(k - 1, eps, sig) + u_pow((n + 1) * sum(sig) + 3 * n + 1) * corr


#: The suspension signatures of the verification grid and the variant domains.
GRID_SIGS: tuple[Sig, ...] = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))

#: Every registered variant, in id order.
VARIANTS: tuple[FormulaVariant, ...] = (
    FormulaVariant(
        id="lem2-Q-sign",
        description=(
            "order-(k+1) cells of odd-k corank-1 germs: first term read with "
            "the fixed +1 quadric fiber vs the eps-dependent fiber"
        ),
        stated=_lem2_odd_k_stated,
        domain=tuple(
            (k, s, eps, sig)
            for k in (3, 5)
            for s in (1, -1)
            for eps in (1, -1)
            for sig in GRID_SIGS
        ),
        cell=lambda k, s, eps, sig: (
            {"family": "AK", "sig": sig, "k": k, "signs": (s,)},
            k + 1,
            eps,
        ),
    ),
    FormulaVariant(
        id="lem4-display-set",
        description=(
            "closed displays for the x1*x2^2 suspension cells: the stated "
            "beta(Y*)-sum and middle-(u-1)-sum exponents disagree with the "
            "unrolled recursion (they coincide only on small instances)"
        ),
        stated=_lem4_stated,
        # the displays assume a nonzero suspension exponent r = p+q
        domain=tuple(
            (l, eps, sig)
            for l in (3, 4, 5, 6)
            for eps in (1, -1)
            for sig in GRID_SIGS
            if sum(sig) >= 1
        ),
        cell=lambda l, eps, sig: ({"family": "G", "sig": sig}, l, eps),
    ),
    FormulaVariant(
        id="lem5-keven-00",
        description=(
            "order-(k-1) cells of even-k D-germs with empty suspension: stated "
            "correction u^{3n-1} vs the general-form correction at (0,0)"
        ),
        stated=_lem5_keven_00_stated,
        domain=tuple(
            (k, e1, e2, eps)
            for k in (4, 6)
            for e1 in (1, -1)
            for e2 in (1, -1)
            for eps in (1, -1)
        ),
        cell=lambda k, e1, e2, eps: (
            {"family": "DK", "sig": (0, 0), "k": k, "signs": (e1, e2)},
            k - 1,
            eps,
        ),
    ),
    FormulaVariant(
        id="lem5-keven-curve",
        description=(
            "order-(k-1) signed cells of even-k D-germs with e1*e2 = -1: the "
            "curve fiber {x1*x2^2 - x1^(k-1) = eps} read as the published 2u "
            "vs u - 2 (three arcs, one circle less three points at infinity)"
        ),
        stated=_lem5_keven_curve_stated,
        domain=tuple(
            (k, e1, -e1, eps, sig)
            for k in (4, 6, 8)
            for e1 in (1, -1)
            for eps in (1, -1)
            for sig in GRID_SIGS
        ),
        cell=lambda k, e1, e2, eps, sig: (
            {"family": "DK", "sig": sig, "k": k, "signs": (e1, e2)},
            k - 1,
            eps,
        ),
    ),
    FormulaVariant(
        id="lem7-A3-first-term",
        description=(
            "order-3 cells of cube-jet corank-2 germs: stated first term "
            "u^{2(p+q)+7}*beta(Y*) vs proof-derived u^{2(p+q)+5}*beta(Y*)"
        ),
        stated=_lem7_A3_stated,
        domain=tuple((t, sig) for t in (1, -1, "naive") for sig in GRID_SIGS),
        cell=lambda t, sig: ({"family": "CUBE", "sig": sig}, 3, t),
    ),
    FormulaVariant(
        id="quadra-even-terminal",
        description=(
            "even-order signed quadric cells: stated terminal exponent "
            "u^{n(p+q)+2n}*beta(Y^eps) vs proof-derived u^{n(p+q)}*beta(Y^eps)"
        ),
        stated=_quadra_even_stated,
        domain=tuple(
            (l, eps, sig) for l in (4, 6) for eps in (1, -1) for sig in GRID_SIGS
        ),
        cell=lambda l, eps, sig: ({"family": "Q", "sig": sig}, l, eps),
    ),
)
