"""Sparse polynomials: the cached structural summary the engine matches on.

Each summary entry replaced a term scan in the engine's rewrite rules.
The scans are kept here as reference implementations, and the summary
must agree with them on random sparse polynomials.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from arczeta.engine import _definite
from arczeta.mpoly import MPoly

VARS = range(5)

coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool),
)
# General monomials, plus the bare v and v^2 that pivots and peels look for
monomials = st.one_of(
    st.dictionaries(st.sampled_from(VARS), st.integers(1, 4), min_size=1, max_size=3).map(
        lambda exps: tuple(sorted(exps.items()))
    ),
    st.tuples(st.sampled_from(VARS), st.sampled_from((1, 2))).map(lambda f: (f,)),
)
# Sums of even powers of single variables, mostly of one sign
even_powers = st.tuples(st.sampled_from(VARS), st.sampled_from((2, 4))).map(lambda f: (f,))


@st.composite
def polys(draw):
    if draw(st.booleans()):
        terms = draw(st.dictionaries(monomials, coefficients, max_size=6))
    else:
        sign = draw(st.sampled_from((1, -1)))
        terms = draw(st.dictionaries(even_powers, coefficients.map(abs), max_size=4))
        terms = {m: sign * c for m, c in terms.items()}
        if terms and draw(st.integers(0, 4)) == 0:
            m = next(iter(terms))
            terms[m] = -terms[m]
    if draw(st.booleans()):
        terms[()] = draw(coefficients)
    return MPoly(terms)


assumed_sets = st.frozensets(st.sampled_from(VARS))


# -- the term scans the summary replaced -----------------------------------------


def ref_content(p: MPoly) -> dict[int, int]:
    terms = dict(p.terms())
    if not terms or () in terms:
        return {}
    it = iter(terms)
    content = dict(next(it))
    for m in it:
        exps = dict(m)
        content = {v: min(e, exps[v]) for v, e in content.items() if v in exps}
        if not content:
            return {}
    return content


def ref_pivots(p: MPoly, assumed: frozenset[int]) -> dict[int, frozenset]:
    """Variables v with p = c*m*v + B, B free of v and m a monomial in
    ``assumed``, each mapped to the variables of m."""
    out = {}
    for v in p.vars():
        split = p.linear_split(v)
        if split is None:
            continue
        unit = split[0].single_term()
        if unit is None:
            continue
        if any(w not in assumed for w, _ in unit[0]):
            continue
        out[v] = frozenset(w for w, _ in unit[0])
    return out


def ref_squares(p: MPoly) -> dict[int, object]:
    terms = [(m, c) for m, c in p.terms() if m]
    out = {}
    for v in sorted(p.vars()):
        hits = [(m, c) for m, c in terms if any(w == v for w, _ in m)]
        if len(hits) == 1 and hits[0][0] == ((v, 2),):
            out[v] = hits[0][1]
    return out


def ref_definite(p: MPoly, assumed: frozenset[int]):
    e = p.constant_term()
    sign = 0
    involved: set[int] = set()
    for m, c in p.terms():
        if not m:
            continue
        if len(m) != 1 or m[0][1] % 2:
            return None
        s = 1 if c > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return None
        involved.add(m[0][0])
    if e == 0:
        if involved & assumed:
            return "empty"
        return involved
    if (e > 0) == (sign > 0):
        return "empty"
    return None


def ref_summary_fields(t: dict) -> tuple:
    """Summary's fields by their per-field definitions: a scan for first
    occurrences and repeats, a dict per multi-factor pivot term, and a
    running intersection of the terms for the content."""
    first, repeated = {}, set()
    for m in t:
        for v, _ in m:
            if v in first:
                repeated.add(v)
            else:
                first[v] = m
    pivots, squares = {}, {}
    for v, m in first.items():
        if v in repeated:
            continue
        if len(m) == 1:
            if m[0][1] == 1:
                pivots[v] = frozenset()
            elif m[0][1] == 2:
                squares[v] = t[m]
        elif dict(m)[v] == 1:
            pivots[v] = frozenset(w for w, _ in m if w != v)
    content = ()
    if t and () not in t:
        it = iter(t)
        common = dict(next(it))
        for m in it:
            exps = dict(m)
            common = {v: min(e, exps[v]) for v, e in common.items() if v in exps}
        content = tuple(common.items())
    definite = None
    signs = {1 if c > 0 else -1 for m, c in t.items() if m}
    if all(len(m) == 1 and m[0][1] % 2 == 0 for m in t if m) and len(signs) <= 1:
        definite = (signs.pop() if signs else 0, frozenset(m[0][0] for m in t if m))
    return (frozenset(first), content, pivots, squares, definite)


def fields(p: MPoly) -> tuple:
    s = p.summary()
    return (s.vars, s.content, s.pivots, s.squares, s.definite)


# -- properties -------------------------------------------------------------------


@given(polys(), assumed_sets)
def test_summary_matches_term_scans(p, assumed):
    s = p.summary()
    assert s.vars == frozenset(v for m, _ in p.terms() for v, _ in m)
    assert dict(s.content) == ref_content(p)
    pivots = {v: rest for v, rest in s.pivots.items() if rest <= assumed}
    assert pivots == ref_pivots(p, assumed)
    assert s.squares == ref_squares(p)
    assert _definite(p, assumed) == ref_definite(p, assumed)


@given(polys())
@example(MPoly())
@example(MPoly.const(Fraction(-3, 2)))
@example(MPoly({((0, 2), (1, 1)): Fraction(1, 2), ((0, 3), (2, 1)): -1, ((1, 2),): 3}))
@example(MPoly({((0, 1), (3, 2)): 2, ((0, 2), (1, 1), (3, 4)): Fraction(1, 3)}))
def test_summary_equals_its_per_field_definitions(p):
    """The one-pass summary is the per-field one, the content's order included."""
    terms = dict(p.terms())
    s = MPoly(terms).summary()
    ref = ref_summary_fields(terms)
    assert (s.vars, s.content, s.pivots, s.squares, s.definite) == ref
    assert list(s.pivots) == list(ref[2]) and list(s.squares) == list(ref[3])


@given(polys())
def test_summary_is_cached_and_survives_arithmetic(p):
    first = p.summary()
    assert p.summary() is first
    before = fields(p)
    for v in VARS:
        p.subs_zero(v)
        if p.linear_split(v) is not None:
            a, b = p.linear_split(v)
            p.subs_clear(v, a, b)
    _ = (p + p, p * p, -p, p - p, p * 3, p * Fraction(1, 2), p**2)
    p.subs_zero_many(set(VARS))
    if first.content:
        p.divide_by(dict(first.content))
    assert p.summary() is first
    assert fields(p) == before == fields(MPoly(dict(p.terms())))


@given(polys(), st.frozensets(st.sampled_from(VARS)))
def test_subs_zero_many_matches_one_at_a_time(p, vs):
    q = p
    for v in sorted(vs):
        q = q.subs_zero(v)
    assert p.subs_zero_many(vs) == q
    if p.vars().isdisjoint(vs):
        assert p.subs_zero_many(vs) is p


def ref_subs_zero(p: MPoly, vs) -> MPoly:
    return MPoly({m: c for m, c in p.terms() if all(w not in vs for w, _ in m)})


ABSENT = frozenset({len(VARS), len(VARS) + 1})  # variables no polynomial here has


@given(polys(), st.frozensets(st.sampled_from(VARS)), st.frozensets(st.sampled_from(VARS)))
def test_zeroings_are_kept_on_the_parent(p, vs, other):
    fresh = MPoly(dict(p.terms()))
    # Two keys on one parent, each asked twice: a kept result must answer
    # only its own key, whatever else was asked before.
    for key in (vs, other, vs):
        q = p.subs_zero_many(key)
        assert q == ref_subs_zero(p, key)
        assert fields(q) == fields(MPoly(dict(q.terms())))
        assert p.subs_zero_many(key) is q
        assert p.subs_zero_many(key | ABSENT) is q
        assert q.subs_zero_many(other) is q.subs_zero_many(other)
        if p.vars().isdisjoint(key):
            assert q is p
    assert p.subs_zero_many(ABSENT) is p
    assert dict(p.terms()) == dict(fresh.terms())
    assert fields(p) == fields(fresh)



# -- shifted views -----------------------------------------------------------------


@given(polys(), st.sampled_from((1, -1)), st.lists(st.frozensets(st.sampled_from(VARS)), max_size=4))
def test_shifted_view_is_the_polynomial_minus_a_constant(p, e, keys):
    terms = {m: c for m, c in p.terms() if m}
    body = MPoly(terms)
    view = body.shifted(e)
    assert view == body - MPoly.const(e)
    assert type(view + body) is MPoly and type(view * 2) is MPoly
    assert fields(view) == fields(MPoly(dict(view.terms())))
    for key in keys:
        q = view.subs_zero_many(key)
        assert q == ref_subs_zero(view, key)
        assert fields(q) == fields(MPoly(dict(q.terms())))
        assert view.subs_zero_many(key) is q
        assert view.subs_zero_many(key | ABSENT) is q
        if body.vars().isdisjoint(key):
            assert q is view
    assert dict(body.terms()) == terms


def test_shifted_needs_no_constant_term_and_a_nonzero_shift():
    x = MPoly.var(0)
    with pytest.raises(ValueError):
        (x + MPoly.const(1)).shifted(1)
    with pytest.raises(ValueError):
        x.shifted(0)
    assert MPoly().shifted(-1) == MPoly.const(1)


# -- the degree split: linear_split and subs_clear -----------------------------------

points = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=len(VARS), max_size=len(VARS)
)


def ref_deg(p: MPoly, v: int) -> int:
    return max((e for m, _ in p.terms() for w, e in m if w == v), default=0)


def ref_eval(p: MPoly, x) -> Fraction:
    total = Fraction(0)
    for m, c in p.terms():
        for w, e in m:
            c = c * x[w] ** e
        total += c
    return total


@given(polys(), st.sampled_from(VARS))
@example(MPoly(), 0)
@example(MPoly({((0, 1), (1, 2)): 2, ((1, 1),): -1}), 0)
@example(MPoly({((0, 1),): 1, ((0, 2),): 1}), 0)
def test_linear_split_writes_p_as_a_v_plus_b(p, v):
    split = p.linear_split(v)
    if ref_deg(p, v) != 1:
        assert split is None
        return
    a, b = split
    assert v not in a.vars() and v not in b.vars()
    assert a * MPoly.var(v) + b == p


@given(polys(), st.sampled_from(VARS), polys(), polys(), points)
def test_subs_clear_is_a_power_of_a_times_the_substitution(q, v, a, b, x):
    a, b = a.subs_zero(v), b.subs_zero(v)
    av = ref_eval(a, x)
    assume(av != 0)
    d = ref_deg(q, v)
    at = list(x)
    at[v] = -ref_eval(b, x) / av
    assert ref_eval(q.subs_clear(v, a, b), x) == av**d * ref_eval(q, at)


@given(polys(), st.sampled_from(VARS), polys(), polys())
def test_subs_clear_leaves_a_polynomial_free_of_v_as_it_is(p, v, a, b):
    for q in (MPoly(), p.subs_zero(v)):
        assert q.subs_clear(v, a, b) is q


@given(polys(), st.dictionaries(st.sampled_from(VARS), st.integers(1, 3), min_size=1))
@example(MPoly.const(1), {0: 1})  # a variable absent from a term
@example(MPoly.var(1) + MPoly.var(0) * MPoly.var(1), {1: 1, 0: 1})
@example(MPoly(), {0: 2})
def test_divide_by_needs_a_monomial_that_divides_every_term(p, mono):
    divides = all(dict(m).get(w, 0) >= e for m, _ in p.terms() for w, e in mono.items())
    if divides:
        assert p.divide_by(mono) * MPoly({tuple(sorted(mono.items())): 1}) == p
    else:
        with pytest.raises(ValueError):
            p.divide_by(mono)
