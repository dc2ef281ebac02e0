"""Ring and rendering behaviour of the integer Laurent-free polynomials."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arczeta.upoly import ONE, U, ZERO, UPoly, geom_sum, u_pow

coefficient_maps = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
)
polys = coefficient_maps.map(UPoly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, st.integers(min_value=-5, max_value=5))
def test_int_coercion_matches_const(a, n):
    assert a + n == a + UPoly.const(n)
    assert a * n == a * UPoly.const(n)
    assert n - a == UPoly.const(n) - a


@given(polys, st.integers(min_value=-7, max_value=7))
def test_eval_is_a_homomorphism(a, x):
    b = U - 3
    assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
    assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)


def test_degree_and_zero_sentinel():
    assert ZERO.degree == float("-inf")
    assert ZERO.is_zero()
    assert not ZERO
    assert ONE.degree == 0
    assert (2 * u_pow(7) - u_pow(6)).degree == 7
    # cancellation drops the term entirely
    assert (U + 1 - U).degree == 0
    assert (U - U).is_zero()


def test_coeff_lookup():
    p = 3 * u_pow(4) - u_pow(2) + 5
    assert p.coeff(4) == 3
    assert p.coeff(2) == -1
    assert p.coeff(0) == 5
    assert p.coeff(17) == 0


def test_pow():
    assert (U + 1) ** 2 == u_pow(2) + 2 * U + 1
    assert (U - 1) ** 0 == ONE
    with pytest.raises(ValueError):
        (U + 1) ** -1


def test_u_pow_is_the_monomial():
    for k in range(21):
        assert u_pow(k) == UPoly({k: 1})
    with pytest.raises(ValueError):
        u_pow(-1)
    with pytest.raises(TypeError):
        u_pow(1.5)


def test_str_canonical_form():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(U) == "u"
    assert str(-U) == "-u"
    assert str(2 * u_pow(7) - u_pow(6)) == "2*u^7 - u^6"
    assert str(u_pow(2) - 2 * U + 1) == "u^2 - 2*u + 1"
    assert str(-3 * u_pow(5) + 4) == "-3*u^5 + 4"


@given(polys)
def test_parse_round_trips_str(p):
    assert UPoly.parse(str(p)) == p


@given(coefficient_maps)
def test_kept_text_is_the_text_of_a_fresh_polynomial(m):
    p = UPoly(m)
    first = str(p)
    assert str(p) is first  # rendered once, then kept on the polynomial
    assert first == str(UPoly(m)) == str(-(-p)) == str(p + U - U)
    assert UPoly.parse(first) == p
    for name in ("_c", "_text", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, first)
    assert str(p) is first and p == UPoly(m)


def test_parse_rejects_garbage():
    for bad in ("", "   ", "u^", "2*", "u**3", "x^2", "u^-1", "++u"):
        with pytest.raises(ValueError):
            UPoly.parse(bad)


@pytest.mark.parametrize(
    "text, value",
    [
        ("3u", "3*u"),
        ("3 u", "3*u"),
        ("2 * u^3 - 4", "2*u^3 - 4"),
        ("u^03", "u^3"),
        ("- u", "-u"),
        ("+u", "u"),
        ("u+1", "u + 1"),
        ("1 -1", "0"),
        ("u^0", "1"),
        ("\nu\n", "u"),
    ],
)
def test_parse_accepts(text, value):
    assert str(UPoly.parse(text)) == value


@pytest.mark.parametrize("text", ["u ^2", "u^ 2", "- - u", "*u", "2*u*3", "1 2", "u u", "u\n+ 1"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        UPoly.parse(text)


blanks = st.text(alphabet=" \t", max_size=2)


@given(polys, st.data())
def test_parse_ignores_blanks_around_signs_and_stars(p, data):
    """Blanks and tabs around each sign and '*', and any whitespace at the
    ends, leave the parsed value as it is."""
    pieces = re.split(r"\s*([+*-])\s*", str(p))
    text = "".join(
        piece if i % 2 == 0 else data.draw(blanks) + piece + data.draw(blanks)
        for i, piece in enumerate(pieces)
    )
    ends = st.text(alphabet=" \t\n\r", max_size=3)
    assert UPoly.parse(data.draw(ends) + text + data.draw(ends)) == p


def test_geom_sum_telescopes():
    """(u^step - 1) * geom_sum(step, m) == u^(step*m) - 1."""
    for step in range(1, 5):
        for m in range(0, 8):
            lhs = (u_pow(step) - 1) * geom_sum(step, m)
            assert lhs == u_pow(step * m) - 1
    assert geom_sum(0, 5) == UPoly.const(5)
    assert geom_sum(3, 0) == ZERO
    with pytest.raises(ValueError):
        geom_sum(-1, 2)


def test_immutability_and_hash():
    p = U + 1
    with pytest.raises(AttributeError):
        p._c = {}  # type: ignore[misc]
    assert hash(U + 1) == hash(p)
    assert len({U, U, u_pow(1)}) == 1


def test_upoly_is_not_a_fraction_ring():
    # exact integer arithmetic only; Fractions should not silently coerce
    with pytest.raises(TypeError):
        U * Fraction(1, 2)  # type: ignore[operator]


values = st.one_of(polys, st.integers(min_value=-50, max_value=50))


def _twin(x):
    """The same value in the other type where it has one, else a fresh copy."""
    if isinstance(x, int):
        return UPoly.const(x)
    if x.degree <= 0:
        return x.coeff(0)
    return UPoly(dict(x.items()))


@given(values, values)
@example(ZERO, 0)
@example(UPoly.const(3), 3)
def test_equal_values_hash_equal(a, b):
    """A constant equals its int, so it must hash as that int: sets and dicts rely on it."""
    assert a == _twin(a)
    for x, y in ((a, b), (a, _twin(a)), (_twin(b), b)):
        if x == y:
            assert hash(x) == hash(y)
            assert len({x, y}) == 1
            assert {x: "x"}.get(y) == "x"
