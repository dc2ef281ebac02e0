"""Catalog of virtual Poincare values for diagonal quadrics and their fibers.

The closed forms here are the measuring sticks everything else leans on, so
the expected values are written out literally rather than recomputed.
"""

import pytest

from arczeta.quadric import (
    beta_D_curve,
    beta_D_curve_zero,
    beta_power_fiber,
    beta_power_zero,
    beta_Y,
    beta_Y_compl,
    beta_Y_fiber,
    beta_Y_star,
)
from arczeta.upoly import ONE, ZERO, UPoly, u_pow

U = u_pow(1)


def test_cone_values():
    assert beta_Y((0, 0)) == ONE
    assert beta_Y((1, 0)) == ONE  # {y^2 = 0} is a point
    assert beta_Y((0, 1)) == ONE
    assert beta_Y((1, 1)) == 2 * U - 1
    assert beta_Y((2, 1)) == u_pow(2)
    assert beta_Y((2, 2)) == u_pow(3) + u_pow(2) - U


def test_cone_general_shape():
    # u^(p+q-1) - u^(max-1) + u^min for (p, q) != (0, 0)
    for p in range(0, 5):
        for q in range(0, 5):
            if (p, q) == (0, 0):
                continue
            expect = u_pow(p + q - 1) - u_pow(max(p, q) - 1) + u_pow(min(p, q))
            assert beta_Y((p, q)) == expect


def test_fiber_values():
    assert beta_Y_fiber((1, 1), 1) == U - 1
    assert beta_Y_fiber((1, 1), -1) == U - 1
    assert beta_Y_fiber((2, 1), 1) == u_pow(2) + U
    assert beta_Y_fiber((2, 1), -1) == u_pow(2) - U
    assert beta_Y_fiber((1, 0), 1) == UPoly.const(2)  # {y^2 = 1}: two points
    assert beta_Y_fiber((1, 0), -1) == ZERO           # {y^2 = -1}: empty
    assert beta_Y_fiber((0, 0), 1) == ZERO


def test_fiber_sign_swap_symmetry():
    """Negating the fiber level is the same as swapping (p, q)."""
    for p in range(0, 5):
        for q in range(0, 5):
            assert beta_Y_fiber((p, q), -1) == beta_Y_fiber((q, p), 1)


def test_star_and_complement():
    assert beta_Y_star((0, 0)) == ZERO
    assert beta_Y_star((1, 1)) == 2 * U - 2
    for p in range(0, 4):
        for q in range(0, 4):
            if (p, q) != (0, 0):
                assert beta_Y_star((p, q)) == beta_Y((p, q)) - 1
            assert beta_Y_compl((p, q)) == u_pow(p + q) - beta_Y((p, q))


def test_square_suspension_is_a_quadric_fiber():
    """m = 2 absorbs x into the quadratic form: one extra p (or q) slot."""
    for p in range(0, 4):
        for q in range(0, 4):
            for eps in (1, -1):
                assert beta_power_fiber(2, 1, (p, q), eps) == beta_Y_fiber(
                    (p + 1, q), eps
                )
                assert beta_power_fiber(2, -1, (p, q), eps) == beta_Y_fiber(
                    (p, q + 1), eps
                )
            assert beta_power_zero(2, 1, (p, q)) == beta_Y((p + 1, q))
            assert beta_power_zero(2, -1, (p, q)) == beta_Y((p, q + 1))


def test_odd_power_suspension_is_a_graph():
    # odd m: x is solved as a Nash function of y, so the set is a graph
    for m in (3, 5):
        for sigma in (1, -1):
            for sig in ((0, 0), (1, 0), (1, 1), (2, 1)):
                for eps in (1, -1):
                    assert beta_power_fiber(m, sigma, sig, eps) == u_pow(sum(sig))
                assert beta_power_zero(m, sigma, sig) == u_pow(sum(sig))


def test_even_power_fiber_sees_m_mod_4():
    """{y^2 = 1 + x^m}: two ovals for m = 0 mod 4, one for m = 2 mod 4.

    Semialgebraically both are a pair of graphs, but the virtual Poincare
    polynomial is an algebraic invariant and counts the smooth completion:
    the sheets glue at infinity into one circle when m = 2 mod 4.
    """
    assert beta_power_fiber(2, -1, (1, 0), 1) == U - 1
    assert beta_power_fiber(4, -1, (1, 0), 1) == 2 * U
    assert beta_power_fiber(6, -1, (1, 0), 1) == U - 1
    assert beta_power_fiber(8, -1, (1, 0), 1) == 2 * U
    # definite cases are insensitive to that subtlety
    assert beta_power_fiber(4, 1, (0, 0), 1) == UPoly.const(2)
    assert beta_power_fiber(4, 1, (0, 0), -1) == ZERO
    assert beta_power_fiber(4, -1, (0, 1), 1) == ZERO


def test_even_power_fiber_level_swap():
    for m in (2, 4, 6):
        for sigma in (1, -1):
            for sig in ((0, 0), (1, 0), (2, 1), (2, 2)):
                p, q = sig
                assert beta_power_fiber(m, sigma, sig, -1) == beta_power_fiber(
                    m, -sigma, (q, p), 1
                )


def test_d_curve_values():
    """beta of {x1*x2^2 + sigma2*x1^(k-1) = eps} in the plane."""
    # odd k: 2u when sigma2*eps = +1, else u - 1
    assert beta_D_curve(5, 1, 1) == 2 * U
    assert beta_D_curve(5, 1, -1) == U - 1
    assert beta_D_curve(5, -1, -1) == 2 * U
    assert beta_D_curve(5, -1, 1) == U - 1
    # even k, sigma2 = +1: u for either fiber level
    assert beta_D_curve(4, 1, 1) == U
    assert beta_D_curve(4, 1, -1) == U
    assert beta_D_curve(6, 1, 1) == U
    # even k, sigma2 = -1: three arcs whose completion is one circle less
    # three points at infinity, so u - 2 (chi_c = -3); the published 2u is
    # the stated reading of the formula variant lem5-keven-curve
    assert beta_D_curve(4, -1, 1) == U - 2
    assert beta_D_curve(4, -1, -1) == U - 2


def test_d_curve_zero_values():
    assert beta_D_curve_zero(5, 1) == 2 * U - 1
    assert beta_D_curve_zero(5, -1) == 2 * U - 1
    assert beta_D_curve_zero(4, 1) == U        # the line x1 = 0 plus an isolated-origin conic
    assert beta_D_curve_zero(4, -1) == 3 * U - 2  # three concurrent lines


def test_input_validation():
    with pytest.raises(ValueError):
        beta_Y((-1, 0))
    with pytest.raises(ValueError):
        beta_Y_fiber((1, 1), 0)
    with pytest.raises(ValueError):
        beta_power_fiber(1, 1, (1, 1), 1)
    with pytest.raises(ValueError):
        beta_power_zero(0, 1, (1, 1))
    with pytest.raises(ValueError):
        beta_D_curve(3, 1, 1)
    with pytest.raises(ValueError):
        beta_D_curve_zero(2, 1)


def test_values_are_upoly():
    assert isinstance(beta_Y((1, 1)), UPoly)
    assert isinstance(beta_D_curve(4, -1, 1), UPoly)
