"""Germ-expression grammar: round trips and error reporting."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arczeta.germs import GermSpec
from arczeta.parser import GermParseError, parse_germ


def test_basic_forms():
    assert parse_germ("A(2) (+) Q(1,1)") == GermSpec("AK", (1, 1), k=2, signs=(1,))
    assert parse_germ("A(3,+) (+) Q(1,1)") == GermSpec("AK", (1, 1), k=3, signs=(1,))
    assert parse_germ("A(3,-) (+) Q(0,0)") == GermSpec("AK", (0, 0), k=3, signs=(-1,))
    assert parse_germ("D(4,+,-) (+) Q(2,1)") == GermSpec(
        "DK", (2, 1), k=4, signs=(1, -1)
    )
    assert parse_germ("E6(-) (+) Q(1,0)") == GermSpec("E6", (1, 0), signs=(-1,))
    assert parse_germ("E7 (+) Q(0,0)") == GermSpec("E7", (0, 0))
    assert parse_germ("E8 (+) Q(2,2)") == GermSpec("E8", (2, 2))
    assert parse_germ("CUBE (+) Q(1,1)") == GermSpec("CUBE", (1, 1))
    assert parse_germ("G (+) Q(0,2)") == GermSpec("G", (0, 2))
    assert parse_germ("Q (+) Q(3,1)") == GermSpec("Q", (3, 1))


def test_even_k_sign_is_optional_and_defaults_to_plus():
    assert parse_germ("A(4) (+) Q(1,0)") == parse_germ("A(4,+) (+) Q(1,0)")
    assert parse_germ("A(4,-) (+) Q(1,0)") == GermSpec("AK", (1, 0), k=4, signs=(-1,))


def test_jki_forms():
    assert parse_germ("J(2,0) (+) Q(1,1)") == GermSpec("JKI", (1, 1), k=2, i=0)
    g = parse_germ("J(2,0; b=1, c=1) (+) Q(1,1)")
    assert g == GermSpec("JKI", (1, 1), k=2, i=0)
    g = parse_germ("J(3,1; a0=3/2, s=-1) (+) Q(0,0)")
    assert g.param("a0") == Fraction(3, 2)
    assert g.param("s") == -1
    # decimal moduli become exact fractions
    g = parse_germ("J(2,0; b=0.5, c=2.25) (+) Q(0,0)")
    assert g.param("b") == Fraction(1, 2)
    assert g.param("c") == Fraction(9, 4)


def test_whitespace_is_benign():
    assert parse_germ("  A( 2 )   (+)   Q( 1 , 1 )  ") == parse_germ("A(2) (+) Q(1,1)")
    assert parse_germ("D( 6 , - , + ) (+) Q(0,1)") == GermSpec(
        "DK", (0, 1), k=6, signs=(-1, 1)
    )


def _err(text: str) -> GermParseError:
    with pytest.raises(GermParseError) as exc_info:
        parse_germ(text)
    return exc_info.value


def test_unknown_family():
    e = _err("B (+) Q(1,1)")
    assert e.kind == "syntax"
    assert e.position == 0
    assert "unknown family" in str(e)


def test_odd_k_without_sign_is_semantic():
    e = _err("A(3) (+) Q(1,1)")
    assert e.kind == "semantic"
    assert e.position == 0
    assert "ambiguous" in str(e)


def test_k_below_the_least_without_sign_is_the_k_error():
    # A(1) has odd k, but its k is the reason, as for A(1,+)
    e = _err("A(1) (+) Q(1,1)")
    assert (e.kind, e.position) == ("semantic", 0)
    assert str(e) == str(_err("A(1,+) (+) Q(1,1)"))
    assert str(e) == "semantic error at position 0: family A needs k >= 2, got 1"


def test_spec_level_rejections_are_semantic_at_family_start():
    e = _err("A(1,+) (+) Q(1,1)")
    assert e.kind == "semantic"
    assert e.position == 0
    e = _err("D(3,+,+) (+) Q(0,0)")
    assert e.kind == "semantic"
    e = _err("  J(2,1; a0=0) (+) Q(0,0)")
    assert e.kind == "semantic"
    assert e.position == 2  # family token, not the offending parameter
    e = _err("J(2,0; c=0) (+) Q(0,0)")
    assert e.kind == "semantic"
    # a repeated parameter is an error, not an overwrite
    for text, name in (
        (" J(2,0; b=1, b=2) (+) Q(0,0)", "b"),
        (" J(3,1; a1=1, a1=0) (+) Q(0,0)", "a1"),
    ):
        e = _err(text)
        assert e.kind == "semantic"
        assert e.position == 1
        assert f"J parameter '{name}' is given more than once" in str(e)


def test_syntax_error_positions():
    e = _err("A(3,+) Q(1,1)")
    assert e.kind == "syntax"
    assert e.position == 7
    assert "'(+)'" in str(e)
    e = _err("D(4,+) (+) Q(1,1)")
    assert e.kind == "syntax"
    assert e.position == 5  # the ')' where the second sign's ',' should be
    e = _err("A(2) (+) Q(-1,1)")
    assert e.kind == "syntax"
    assert e.position == 11
    assert "integer" in str(e)
    e = _err("A(2) (+) Q(1,1) extra")
    assert e.kind == "syntax"
    assert e.position == 16
    assert "trailing" in str(e)
    e = _err("")
    assert e.position == 0


def test_zero_denominator_is_a_parse_error():
    e = _err("J(2,0; b=1/0, c=1) (+) Q(0,0)")
    assert e.kind == "syntax"
    assert e.position == 9
    assert str(e) == "syntax error at position 9: zero denominator in '1/0'"


@pytest.mark.parametrize(
    "text, position",
    [
        ("A(²,+) (+) Q(1,0)", 2),  # isdigit, but int() rejects it
        ("A(3,+) (+) Q(1,٣)", 15),  # isdigit, and int() reads it as 3
        ("J(2,0; b=٣) (+) Q(0,0)", 9),
        ("J(2,0; b=1/٣) (+) Q(0,0)", 11),
    ],
)
def test_only_ascii_digits_are_digits(text, position):
    with pytest.raises(GermParseError) as exc:
        parse_germ(text)
    assert exc.value.kind == "syntax"
    assert exc.value.position == position


def test_error_message_format():
    e = _err("A(3,+) Q(1,1)")
    assert str(e) == "syntax error at position 7: expected '(+)'"
    assert isinstance(e, ValueError)


# -- generative round trips ----------------------------------------------------

sigs = st.tuples(st.integers(0, 3), st.integers(0, 3))
signs = st.sampled_from([1, -1])
small_fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@st.composite
def germ_specs(draw):
    family = draw(
        st.sampled_from(["Q", "AK", "DK", "E6", "E7", "E8", "CUBE", "G", "JKI"])
    )
    sig = draw(sigs)
    if family == "AK":
        return GermSpec("AK", sig, k=draw(st.integers(2, 9)), signs=(draw(signs),))
    if family == "DK":
        return GermSpec(
            "DK", sig, k=draw(st.integers(4, 9)), signs=(draw(signs), draw(signs))
        )
    if family == "E6":
        return GermSpec("E6", sig, signs=(draw(signs),))
    if family == "JKI":
        k = draw(st.integers(2, 4))
        i = draw(st.integers(0, 2))
        params: list[tuple[str, Fraction]] = []
        if i == 0:
            params.append(("b", draw(small_fracs)))
            params.append(("c", draw(small_fracs.filter(bool))))
            if k > 2 and draw(st.booleans()):
                m = draw(st.integers(0, k - 1))
                a = draw(small_fracs.filter(bool))
                params.append((f"a{m}", a))
        else:
            params.append(("s", Fraction(draw(signs))))
            params.append(("a0", draw(small_fracs.filter(bool))))
            if draw(st.booleans()):
                m = draw(st.integers(1, k))
                params.append((f"a{m}", draw(small_fracs.filter(bool))))
        return GermSpec("JKI", sig, k=k, i=i, params=tuple(params))
    return GermSpec(family, sig)


@given(germ_specs())
def test_render_parse_round_trip(g):
    text = g.render()
    assert parse_germ(text) == g
    # and the round trip is byte-stable
    assert parse_germ(text).render() == text


@given(germ_specs(), st.integers(0, 60), st.characters())
@example(GermSpec("AK", (1, 0), k=3, signs=(1,)), 2, "²")
def test_mutations_fail_cleanly(g, pos, ch):
    """Any single-character edit either parses to some germ or raises the

    grammar's own error type; nothing else may escape.
    """
    text = g.render()
    pos = min(pos, len(text) - 1)
    mutated = text[:pos] + ch + text[pos + 1 :]
    try:
        parse_germ(mutated)
    except GermParseError:
        pass
