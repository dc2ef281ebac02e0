"""Closed-form virtual Poincaré polynomials of the terminal sets.

Every arc-space computation in this package bottoms out in one of the
sets catalogued here: quadric zero sets and fibers, power-plus-quadric
fibers and zero sets, and the plane curves x1*x2^2 + s*x1^(k-1) = e.

Signature convention: ``sig = (p, q)`` stands for the diagonal form
Q_{p,q}(y) = y_1^2 + ... + y_p^2 - y_{p+1}^2 - ... - y_{p+q}^2 on R^{p+q}.
For the empty signature (0, 0) the conventions are: the zero set is the
single point of R^0 (beta 1), fibers, punctured zero set and complement
are all 0.
"""

from __future__ import annotations

from .upoly import ONE, U_MINUS_1, UPoly, ZERO, geom_sum, u_pow

__all__ = [
    "Sig",
    "beta_Y",
    "beta_Y_fiber",
    "beta_Y_star",
    "beta_Y_compl",
    "beta_power_fiber",
    "beta_power_zero",
    "beta_D_curve",
    "beta_D_curve_zero",
]

Sig = tuple[int, int]


def _check_sig(sig: Sig) -> Sig:
    p, q = sig
    if p < 0 or q < 0:
        raise ValueError(f"signature entries must be non-negative, got {sig}")
    return sig


def _check_sign(s: int, name: str = "sign") -> int:
    if s not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {s!r}")
    return s


def beta_Y(sig: Sig) -> UPoly:
    """beta of the zero set {Q_{p,q} = 0} in R^{p+q}."""
    p, q = _check_sig(sig)
    if p + q == 0:
        return ONE
    return u_pow(p + q - 1) - u_pow(max(p, q) - 1) + u_pow(min(p, q))


def beta_Y_fiber(sig: Sig, eps: int) -> UPoly:
    """beta of the fiber {Q_{p,q} = eps}, eps in {+1, -1}."""
    p, q = _check_sig(sig)
    _check_sign(eps, "eps")
    if p + q == 0:
        return ZERO
    if eps == -1:
        p, q = q, p
    if p <= q:
        return u_pow(q - 1) * (u_pow(p) - 1)
    return u_pow(q) * (u_pow(p - 1) + 1)


def beta_Y_star(sig: Sig) -> UPoly:
    """beta of the punctured zero set Y_{p,q} minus the origin."""
    p, q = _check_sig(sig)
    if p + q == 0:
        return ZERO
    return beta_Y(sig) - 1


def beta_Y_compl(sig: Sig) -> UPoly:
    """beta of the complement R^{p+q} minus Y_{p,q}."""
    p, q = _check_sig(sig)
    if p + q == 0:
        return ZERO
    return u_pow(p + q) - beta_Y(sig)


def beta_power_fiber(m: int, sigma: int, sig: Sig, eps: int) -> UPoly:
    """beta of {sigma*x^m + Q_{p,q}(y) = eps} in R^{p+q+1}, m >= 2.

    Odd m: the equation solves for x as a Nash function of y, so the set
    is a graph over R^{p+q}.  Even m: peel min(p,q) hyperbolic pairs,
    each contributing a punctured-line factor, down to a definite
    residual handled case by case (smooth completions of the residual
    curves/suspensions; the p = q+1, sigma = -1 residual depends on
    m mod 4 because the two sheet-ends glue differently at infinity).
    """
    if m < 2:
        raise ValueError(f"power must be >= 2, got {m}")
    _check_sign(sigma, "sigma")
    _check_sign(eps, "eps")
    p, q = _check_sig(sig)
    if m % 2 == 1:
        return u_pow(p + q)
    if eps == -1:
        return beta_power_fiber(m, -sigma, (q, p), +1)
    r = min(p, q)
    s = abs(p - q)
    peeled = ZERO
    if r:
        peeled = U_MINUS_1 * u_pow(p + q - r) * geom_sum(1, r)
    if sigma == 1:
        if p >= q:
            tail = 1 + u_pow(s)
        else:
            tail = u_pow(s - 1) * U_MINUS_1
    else:
        if p <= q:
            tail = ZERO
        elif s >= 2:
            tail = u_pow(1) + u_pow(s)
        elif m % 4 == 0:
            tail = 2 * u_pow(1)
        else:
            tail = U_MINUS_1
    return peeled + u_pow(r) * tail


def beta_power_zero(m: int, sigma: int, sig: Sig) -> UPoly:
    """beta of {sigma*x^m + Q_{p,q}(y) = 0} in R^{p+q+1}, m >= 2."""
    if m < 2:
        raise ValueError(f"power must be >= 2, got {m}")
    _check_sign(sigma, "sigma")
    p, q = _check_sig(sig)
    if m % 2 == 1:
        return u_pow(p + q)
    if sigma == 1:
        return beta_Y((p + 1, q))
    return beta_Y((p, q + 1))


def beta_D_curve(k: int, sigma2: int, eps: int) -> UPoly:
    """beta of the plane curve {x1*x2^2 + sigma2*x1^(k-1) = eps}, k >= 4.

    For odd k the substitution x1 -> -x1 identifies the (sigma2, eps)
    and (-sigma2, -eps) fibers, so the value depends on sigma2*eps only;
    for even k the same substitution makes the value eps-independent.

    Even k, sigma2 = -1, at eps = 1: the curve is x2^2 = (1 + x1^(k-1))/x1
    with k - 1 odd.  For x1 > 0 the right side is positive, giving two
    graphs x2 = ±sqrt(1/x1 + x1^(k-2)); for x1 < 0 it is >= 0 exactly when
    x1 <= -1, giving one arc that crosses x2 = 0 at x1 = -1.  So the curve
    has three components, each homeomorphic to R, and chi_c = -3.  Its six
    ends (x1 -> 0+ and x1 -> +inf on the graphs, x1 -> -inf on the arc)
    meet in pairs at three points at infinity of the completion, which is
    one circle.  So beta = beta(circle) - 3 = (u + 1) - 3 = u - 2, and
    beta(-1) = -3 = chi_c.  The published value 2u gives chi_c = -2; it is
    kept as a stated reading in ``formulas.VARIANTS``.
    """
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    _check_sign(sigma2, "sigma2")
    _check_sign(eps, "eps")
    if k % 2 == 1:
        return 2 * u_pow(1) if sigma2 * eps == 1 else U_MINUS_1
    return u_pow(1) if sigma2 == 1 else U_MINUS_1 - 1


def beta_D_curve_zero(k: int, sigma2: int) -> UPoly:
    """beta of {x1*x2^2 + sigma2*x1^(k-1) = 0} = {x1*(x2^2 + sigma2*x1^(k-2)) = 0}."""
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    _check_sign(sigma2, "sigma2")
    if k % 2 == 1:
        return 2 * u_pow(1) - 1
    if sigma2 == 1:
        return u_pow(1)
    return 3 * u_pow(1) - 2
