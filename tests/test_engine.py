"""Stratification engine: arc-coefficient systems and their decomposition."""

import hashlib
import random
from fractions import Fraction

import pytest

from arczeta import engine
from arczeta.engine import (
    BUDGET_ENV,
    DEFAULT_BUDGET,
    EQ,
    NEQ,
    ArcSystem,
    beta_of,
    build_system,
    decompose,
    effective_budget,
)
from arczeta.formulas import arc_Ak, arc_D4_order4, arc_E, arc_Q
from arczeta.germs import CHANNELS, TARGETS, GermSpec, germ_poly
from arczeta.mpoly import MPoly
from arczeta.parser import parse_germ
from arczeta.upoly import UPoly, u_pow


def _v(j: int) -> MPoly:
    return MPoly.var(j)


# A variable's id is coordinate * STRIDE + level - 1; a set of ids is an int
# mask, bit v for id v, which _ids reads back as a set.
STRIDE = engine._LEVEL_STRIDE


def _ids(mask: int) -> set[int]:
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def _mask(vs) -> int:
    return sum(1 << v for v in set(vs))


Q21 = _v(0) ** 2 + _v(1) ** 2 - _v(2) ** 2          # Q_{2,1}
# x1^3 + Q_{1,1}(y), corank 2: x2 is a mute degenerate direction
CUBE11 = _v(0) ** 3 + _v(2) ** 2 - _v(3) ** 2
CUBE_BLOCKS = ("a", "a", "c", "c")
D4PM11 = (
    _v(0) * _v(1) ** 2 - _v(0) ** 3 + _v(2) ** 2 - _v(3) ** 2
)  # x1*x2^2 - x1^3 + Q_{1,1}


def test_build_system_shape():
    sys = build_system(Q21, ("c", "c", "c"), 4, 1)
    assert sys.n == 4
    assert sys.total_vars == 3 * 4
    # t^2, t^3 must vanish; t^4 hits the target
    assert [rel for _, rel in sys.constraints] == [EQ] * 3
    naive = build_system(Q21, ("c", "c", "c"), 4, "naive")
    assert sum(rel == EQ for _, rel in naive.constraints) == 2
    assert naive.constraints[-1][1] == "neq"


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_system(Q21, ("c", "c", "c"), 1, 1)
    with pytest.raises(ValueError):
        build_system(Q21, ("c", "c", "c"), 3, "neq")
    with pytest.raises(ValueError):
        build_system(Q21, ("c", "c", "x"), 3, 1)
    with pytest.raises(ValueError):
        build_system(Q21 + MPoly.const(1), ("c", "c", "c"), 3, 1)
    with pytest.raises(ValueError):
        build_system(_v(0) + _v(1) ** 2, ("c", "c"), 3, 1)  # order 1 at 0
    with pytest.raises(ValueError):
        build_system(Q21, ("c", "c"), 3, 1)  # x2 has no block
    with pytest.raises(ValueError):
        build_system(Q21, ("c", "c", "c"), 1025, 1)  # beyond the level stride


def test_build_system_order_limit():
    """Levels stay below the id stride: order MAX_ORDER is the largest cell."""
    assert engine.MAX_ORDER == STRIDE == 256
    x2 = MPoly.var(0, 2)
    system = build_system(x2, ("c",), 256, 1)
    assert system.total_vars == 256
    assert _ids(system.alive) == set(range(256))
    with pytest.raises(ValueError, match="arc order must be <= 256, got 257"):
        build_system(x2, ("c",), 257, 1)


# Each block tuple's ids at n = 4 in split order: the suspension (quadric)
# coefficients by level, then coordinate, before b, before a.  Written as
# (coordinate, level - 1).
SPLIT_ORDER = {
    blocks: [j * STRIDE + s for j, s in order]
    for blocks, order in {
        ("a", "b", "c", "c"): [
            (2, 0), (3, 0), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3),
            (1, 0), (1, 1), (1, 2), (1, 3), (0, 0), (0, 1), (0, 2), (0, 3),
        ],
        ("a", "a", "c"): [
            (2, 0), (2, 1), (2, 2), (2, 3), (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2),
            (0, 3), (1, 3),
        ],
        ("c",): [(0, 0), (0, 1), (0, 2), (0, 3)],
    }.items()
}


def test_layout_names_and_orders_variables():
    for blocks, order in SPLIT_ORDER.items():
        for n in range(1, 5):
            names, rank, alive = engine._layout(blocks, n)
            quadrics = 0
            expected = {}
            for j, block in enumerate(blocks):
                quadrics += block == "c"
                for s in range(1, n + 1):
                    name = f"c{s}^{quadrics}" if block == "c" else f"{block}{s}"
                    expected[j * STRIDE + s - 1] = name
            assert dict(names) == expected
            assert _ids(alive) == set(rank) == set(expected)
            assert sorted(_ids(alive), key=rank.__getitem__) == [
                v for v in order if v % STRIDE < n
            ]
    with pytest.raises(ValueError, match="unknown block 'x'"):
        engine._layout(("a", "x"), 2)


def test_quadric_cell_matches_closed_form():
    out = beta_of(Q21, ("c", "c", "c"), 4, 1)
    assert out.ok
    assert out.value == arc_Q(4, 1, (2, 1)) == u_pow(9) + u_pow(8)
    assert out.audit()


def test_cube_cells_match_closed_form():
    for n, target, channel in ((3, 1, "plus"), (3, "naive", "naive"), (5, -1, "minus")):
        out = beta_of(CUBE11, CUBE_BLOCKS, n, target)
        assert out.ok, out.detail
        t = target if target == "naive" else target
        assert out.value == arc_E("CUBE", n, t, (1, 1))
    assert beta_of(CUBE11, CUBE_BLOCKS, 3, 1).value == 2 * u_pow(10) - u_pow(9)


def test_corank1_cell_matches_closed_form():
    f = _v(0) ** 3 + _v(1) ** 2 - _v(2) ** 2  # A_2 with (1,1) suspension
    out = beta_of(f, ("a", "c", "c"), 3, 1)
    assert out.ok
    assert out.value == arc_Ak(2, 1, 3, 1, (1, 1)) == 2 * u_pow(7) - u_pow(6)


def test_hyperbolic_pair_is_peeled():
    """A balanced suspension of the order-4 D4 cell needs the peel rule."""
    out = beta_of(D4PM11, ("a", "b", "c", "c"), 4, 1)
    assert out.ok, out.detail
    assert any("[peel]" in line for line in out.trace)
    assert out.value == arc_D4_order4(-1, 1, (1, 1))
    assert out.value == 2 * u_pow(13) + u_pow(12) - 2 * u_pow(11) - u_pow(10)
    assert out.audit()


def test_deep_balanced_cell_completes():
    # beyond every closed form, but the peel keeps the terminals recognizable
    out = beta_of(D4PM11, ("a", "b", "c", "c"), 6, 1)
    assert out.ok, out.detail
    assert out.value == 2 * u_pow(19) + u_pow(18) - u_pow(16)


# A D-curve plus an isolated hyperbolic pair: x*y^2 + x^3 + z^2 - w^2 = 1.
# (A plain quadric will not do: the diagonal rule recognizes it whole.)
D_CURVE_PAIR = _v(0) * _v(1) ** 2 + _v(0) ** 3 + _v(2) ** 2 - _v(3) ** 2 - MPoly.const(1)


def test_recognition_does_not_rotate():
    """The rotation z^2 - w^2 = (z+w)(z-w) is the peel rule alone."""
    assert engine._recognize(D_CURVE_PAIR, EQ) is None


def test_rotation_is_a_traced_peel():
    system = _hand_built({2: "c1^1", 3: "c1^2", 1: "b1", 0: "a1"}, [(D_CURVE_PAIR, EQ)])
    out = decompose(system)
    assert out.ok, out.detail
    assert out.value == u_pow(3)
    assert any(line.startswith("[peel] c1^1^2-c1^2^2") for line in out.trace)
    assert out.audit()


def _hand_built(names: dict[int, str], constraints) -> ArcSystem:
    """A system over the ids of ``names``, which splits them in the order listed."""
    rank = {v: r for r, v in enumerate(names)}
    return ArcSystem(1, 1, constraints, names, rank, _mask(names))


def _c1(ids) -> dict[int, str]:
    """Level-1 quadric coefficients: id j is named c1^(j+1)."""
    return {j: f"c1^{j + 1}" for j in ids}


def _counting_linear_split(monkeypatch) -> list:
    calls = []
    split = MPoly.linear_split

    def counting(self, v):
        calls.append(v)
        return split(self, v)

    monkeypatch.setattr(MPoly, "linear_split", counting)
    return calls


def test_pivot_substitutes_into_later_constraints(monkeypatch):
    """eq#0's pivot v0 occurs in eq#1 and eq#2, which have no pivot of their
    own: the rule solves v0 = -v1^2 once and clears it from both."""
    v0, v1, v2, v3 = (_v(j) for j in range(4))
    one = MPoly.const(1)
    calls = _counting_linear_split(monkeypatch)
    out = decompose(
        _hand_built(
            _c1(range(4)),
            [(v0 + v1**2, EQ), (v0**2 + v2**2 - one, EQ), (v0 * v3 - one, NEQ)],
        )
    )
    assert calls == [0]
    assert out.ok, out.detail
    assert any(line.startswith("[pivot] c1^1 from eq#0") for line in out.trace)
    by_hand = decompose(
        _hand_built(_c1(range(1, 4)), [(v1**4 + v2**2 - one, EQ), (-(v1**2) * v3 - one, NEQ)])
    )
    assert by_hand.ok, by_hand.detail
    assert out.value == by_hand.value
    assert out.audit()


def test_pivot_without_later_occurrence_splits_nothing(monkeypatch):
    calls = _counting_linear_split(monkeypatch)
    out = beta_of(D4PM11, ("a", "b", "c", "c"), 6, 1)
    assert any("[pivot]" in line and "from eq#" in line for line in out.trace)
    assert calls == []


CIRCLE = _v(0) ** 2 + _v(1) ** 2 - MPoly.const(1)  # beta = u + 1
FIVE_VARS = _c1(range(5))


def _counting_definite(monkeypatch) -> list:
    """Record each call of the forced-zero rule's definite-form test."""
    calls = []
    definite = engine._definite

    def counting(p, assumed):
        calls.append(p)
        return definite(p, assumed)

    monkeypatch.setattr(engine, "_definite", counting)
    return calls


def test_deepest_pivots_are_discharged_in_one_round(monkeypatch):
    """Each discharge empties the deepest constraint and substitutes nothing,
    so the scan goes on one constraint up: the cleanup rules run once, over
    the three equations, where a restart after every pivot would run them
    four times."""
    v0, v1, v2, v3, v4 = (_v(j) for j in range(5))
    calls = _counting_definite(monkeypatch)
    out = decompose(
        _hand_built(
            FIVE_VARS,
            [(CIRCLE, EQ), (v2 + v0**2, EQ), (v3 + v2**2 + v1, EQ), (v4 + v3, NEQ)],
        )
    )
    assert out.ok, out.detail
    assert out.trace == [
        "[pivot] c1^5 from neq#3 (factor u-1)",
        "[pivot] c1^4 from eq#2",
        "[pivot] c1^3 from eq#1",
        "[leaf] u^2 - 1",
    ]
    assert len(calls) == 3
    # v4 ranges over a punctured line, v3 and v2 over graphs, (v0, v1) the circle
    assert out.value == (u_pow(1) - 1) * (u_pow(1) + 1)


def test_shallower_discharge_restarts_the_scan():
    """v2 is linear in the deepest equation but also occurs in the neq above
    it; once the neq's own pivot v3 removes it, v2 is the deepest
    constraint's pivot and is taken next, before the circle is tried."""
    v2, v3 = _v(2), _v(3)
    out = decompose(
        _hand_built(_c1(range(4)), [(CIRCLE, EQ), (v3 + v2, NEQ), (v2 + _v(1) ** 2, EQ)])
    )
    assert out.ok, out.detail
    assert out.trace == [
        "[pivot] c1^4 from neq#1 (factor u-1)",
        "[pivot] c1^3 from eq#1",
        "[leaf] u^2 - 1",
    ]
    assert out.value == (u_pow(1) - 1) * (u_pow(1) + 1)


def test_substituting_pivot_is_followed_by_cleanup(monkeypatch):
    """Clearing v0 = -v1^2 from a later equation can leave a constant or a
    single term, which the cleanup rules, not the terminal catalog, take."""
    v0, v1, v2 = _v(0), _v(1), _v(2)
    # the later equation becomes 1 = 0: the stratum is empty, not a zero leaf
    out = decompose(
        _hand_built(_c1(range(2)), [(v0 + v1**2, EQ), (v0 + v1**2 + MPoly.const(1), EQ)])
    )
    assert out.ok, out.detail
    assert out.trace == ["[pivot] c1^1 from eq#0", "[empty]"]
    assert out.value == 0 and out.leaves == []
    # the later equation becomes v2^2 = 0: the forced-zero rule sets v2 = 0
    zeroed = []
    subs_zero_mask = MPoly.subs_zero_mask

    def recording(self, mask):
        zeroed.append(_ids(mask))
        return subs_zero_mask(self, mask)

    monkeypatch.setattr(MPoly, "subs_zero_mask", recording)
    out = decompose(
        _hand_built(_c1(range(3)), [(v0 + v1**2, EQ), (v0 + v1**2 + v2**2, EQ)])
    )
    assert out.ok, out.detail
    assert out.trace == ["[pivot] c1^1 from eq#0", "[leaf] u"]
    assert zeroed == [{2}]
    assert out.value == u_pow(1)


def test_systems_share_one_read_only_layout():
    engine._layout.cache_clear()
    first = build_system(Q21, ("c", "c", "c"), 4, 1)
    again = build_system(_v(0) ** 3 + _v(1) ** 2 - _v(2) ** 2, ("c", "c", "c"), 4, "naive")
    other = build_system(Q21, ("c", "c", "c"), 5, 1)
    assert again.names is first.names
    assert again.rank is first.rank and again.alive is first.alive
    assert other.names is not first.names and other.rank is not first.rank
    assert other.alive is not first.alive
    with pytest.raises(TypeError):
        first.names[0] = "x"
    with pytest.raises(TypeError):
        first.rank[0] = 0


# (value, strata) per channel of cells whose last rotation is a peel of a
# D-curve suspension into two leaves; the "+ 2" counts those leaves.
PEELED_CELLS = {
    ("D(4,+,+) (+) Q(1,1)", 6): {
        "plus": (2 * u_pow(19) - u_pow(18) + 2 * u_pow(17) - 2 * u_pow(16), 9 + 2),
        "minus": (2 * u_pow(19) - u_pow(18) + 2 * u_pow(17) - 2 * u_pow(16), 9 + 2),
        "naive": (
            2 * u_pow(20) - 3 * u_pow(19) + 3 * u_pow(18) - 4 * u_pow(17) + 2 * u_pow(16),
            9 + 2,
        ),
    },
    ("D(6,+,-) (+) Q(1,1)", 8): {
        "plus": (2 * u_pow(25) + u_pow(24) - 2 * u_pow(21) - u_pow(20), 13 + 2),
        "minus": (2 * u_pow(25) + u_pow(24) - 2 * u_pow(21) - u_pow(20), 13 + 2),
        "naive": (
            2 * u_pow(26) - u_pow(25) - u_pow(24) - 2 * u_pow(22) + u_pow(21) + u_pow(20),
            13 + 2,
        ),
    },
}


@pytest.mark.parametrize("cell", PEELED_CELLS, ids=lambda cell: f"{cell[0]}@{cell[1]}")
@pytest.mark.parametrize("channel", CHANNELS)
def test_peeled_cells_are_pinned(cell, channel):
    text, n = cell
    poly, blocks = germ_poly(parse_germ(text))
    out = beta_of(poly, blocks, n, TARGETS[channel])
    assert out.ok, out.detail
    assert (out.value, out.strata) == PEELED_CELLS[cell][channel]
    assert any("[peel]" in line for line in out.trace)
    assert out.audit()


def test_unbalanced_deep_cell_fails_honestly():
    """Definite suspensions of deep D4 cells hit a terminal with no catalog

    entry; the engine must refuse rather than guess.
    """
    f = _v(0) * _v(1) ** 2 - _v(0) ** 3 + _v(2) ** 2
    out = beta_of(f, ("a", "b", "c"), 6, 1)
    assert not out.ok
    assert out.value is None
    assert out.failure == "unmatched-terminal"
    assert out.detail
    assert not out.audit()


def test_determinism():
    runs = [beta_of(D4PM11, ("a", "b", "c", "c"), 5, "naive") for _ in range(2)]
    assert runs[0].value == runs[1].value
    assert runs[0].trace == runs[1].trace
    assert runs[0].leaves == runs[1].leaves
    assert runs[0].strata == runs[1].strata


def test_leaves_sum_to_value():
    out = beta_of(CUBE11, CUBE_BLOCKS, 4, "naive")
    assert out.ok
    assert out.audit()
    assert len(out.leaves) >= 1
    assert all(isinstance(v, UPoly) for v in out.leaves)
    total = out.leaves[0]
    for v in out.leaves[1:]:
        total = total + v
    assert total == out.value


def test_budget_override():
    out = beta_of(Q21, ("c", "c", "c"), 6, 1, budget=2)
    assert not out.ok
    assert out.failure == "depth-exceeded"
    assert BUDGET_ENV in out.detail


def test_budget_env(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert effective_budget() == DEFAULT_BUDGET
    assert effective_budget(7) == 7
    monkeypatch.setenv(BUDGET_ENV, "3")
    assert effective_budget() == 3
    out = beta_of(D4PM11, ("a", "b", "c", "c"), 4, 1)
    assert out.failure == "depth-exceeded"
    # explicit override still wins over the environment
    assert beta_of(D4PM11, ("a", "b", "c", "c"), 4, 1, budget=10_000).ok
    monkeypatch.setenv(BUDGET_ENV, "zero")
    with pytest.raises(ValueError):
        effective_budget()
    monkeypatch.setenv(BUDGET_ENV, "-4")
    with pytest.raises(ValueError):
        effective_budget()


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_override_must_be_positive(budget):
    """An explicit budget obeys the environment's rule: below 1 is an error,
    not a depth-exceeded outcome that blames the environment variable."""
    with pytest.raises(ValueError, match=f"budget must be positive, got {budget}"):
        effective_budget(budget)
    with pytest.raises(ValueError):
        beta_of(Q21, ("c", "c", "c"), 3, 1, budget=budget)


def test_run_renders_no_text_until_its_trace_is_read(monkeypatch):
    """A run records one step per trace line and renders no polynomial
    until its trace is read; then each leaf's value is rendered once."""
    rendered = []

    def counting(original):
        def wrapper(self, *args):
            rendered.append(self)
            return original(self, *args)

        return wrapper

    monkeypatch.setattr(UPoly, "__str__", counting(UPoly.__str__))
    monkeypatch.setattr(MPoly, "text", counting(MPoly.text))
    # leaves, splits and a peel
    out = beta_of(D4PM11, ("a", "b", "c", "c"), 4, 1)
    assert out.ok and len(out.leaves) > 1
    assert out.steps and rendered == []
    assert len(out.steps) == len(out.trace)
    assert len(rendered) == len(out.leaves)


def test_decompose_accepts_prebuilt_system():
    sys = build_system(Q21, ("c", "c", "c"), 2, -1)
    out = decompose(sys)
    assert out.ok
    assert out.value == arc_Q(2, -1, (2, 1))


# -- the shared arc expansion --------------------------------------------------

# One germ of each family; the J instance carries a non-integer modulus.
WITNESS_GERMS = [
    GermSpec("Q", (1, 1)),
    GermSpec("AK", (1, 0), k=3, signs=(-1,)),
    GermSpec("DK", (0, 1), k=5, signs=(1, -1)),
    GermSpec("E6", (0, 0), signs=(-1,)),
    GermSpec("E7", (1, 0)),
    GermSpec("E8", (0, 0)),
    GermSpec("CUBE", (0, 1)),
    GermSpec("G", (1, 0)),
    GermSpec("JKI", (0, 0), k=2, i=0, params=(("b", Fraction(1, 2)),)),
]
_T_VAR = -1  # the arc parameter t, as an extra polynomial variable


def _t_degree(mono):
    return dict(mono).get(_T_VAR, 0)


def _truncate(p: MPoly, n: int) -> MPoly:
    return MPoly({m: c for m, c in p.terms() if _t_degree(m) <= n})


def _reference_constraints(germ: MPoly, d: int, n: int, vid, target):
    """f(arc(t)) by plain substitution, collected by the power of t."""
    t = MPoly.var(_T_VAR)
    arcs = [MPoly.zero()] * d
    for j in range(d):
        for s in range(1, n + 1):
            arcs[j] = arcs[j] + MPoly.var(vid[j, s]) * t**s
    total = MPoly.zero()
    for mono, coef in germ.terms():
        term = MPoly.const(coef)
        for j, e in mono:
            for _ in range(e):
                term = _truncate(term * arcs[j], n)
        total = total + term
    by_degree = [dict() for _ in range(n + 1)]
    for mono, coef in total.terms():
        rest = tuple((v, e) for v, e in mono if v != _T_VAR)
        by_degree[_t_degree(mono)][rest] = coef
    coeffs = [MPoly(terms) for terms in by_degree]
    out = [(coeffs[m], EQ) for m in range(2, n) if not coeffs[m].is_zero()]
    if target == "naive":
        out.append((coeffs[n], NEQ))
    else:
        out.append((coeffs[n] - MPoly.const(target), EQ))
    return out


def _coefficients(system):
    return [c for p, _ in system.constraints for _, c in p.terms()]


@pytest.mark.parametrize("spec", WITNESS_GERMS, ids=lambda g: g.render())
def test_build_system_matches_reference_expansion(spec):
    poly, blocks = germ_poly(spec)
    d = len(blocks)
    ascending = list(range(2, 10))
    shuffled = ascending[:]
    random.Random(7).shuffle(shuffled)
    vid_of = {}
    for order in (ascending, ascending[::-1], shuffled):
        engine._expansion.cache_clear()
        for n in order:
            for target in (1, -1, "naive"):
                system = build_system(poly, blocks, n, target)
                vids = sorted(_ids(system.alive))
                # one id per (coordinate, level), sorted in that order, whatever n is
                levels = [(j, s) for j in range(d) for s in range(1, n + 1)]
                assert [(v // STRIDE, v % STRIDE + 1) for v in vids] == levels
                vid = {(j, s): vids[j * n + s - 1] for j in range(d) for s in range(1, n + 1)}
                for key, value in vid.items():
                    assert vid_of.setdefault(key, value) == value
                expected = _reference_constraints(poly, d, n, vid, target)
                assert system.constraints == expected, (spec.render(), n, target)
                coeffs = _coefficients(system)
                if spec.family == "JKI":
                    if n >= 4:  # b*x1^2*x2^2 first reaches t^4
                        assert Fraction(1, 2) in coeffs
                else:
                    assert all(type(c) is int for c in coeffs)



def test_signed_last_constraint_reuses_the_series_coefficient():
    """A signed cell's last constraint c - e shares the summaries of the
    zeroings of the germ's t^n coefficient c, which the naive cell and
    every later order zero too."""
    poly, blocks = germ_poly(parse_germ("D(4,+,-) (+) Q(1,1)"))
    n = 5
    c = engine._expansion(poly)[n]
    vs = sorted(c.vars())
    for target in (1, -1):
        last, rel = build_system(poly, blocks, n, target).constraints[-1]
        assert rel == EQ and last == c - MPoly.const(target)
        for zeroed in ((), vs[:1], vs[::2], vs[1::3], vs[:-1]):
            view = last.subs_zero_many(zeroed).summary()
            assert view.pivots is c.subs_zero_many(zeroed).summary().pivots


def test_sign_test_is_exact_for_huge_coefficients():
    # c*v1^2 = 1 has two real points for any c > 0; 1/c underflows a float
    huge = 10**400
    assert beta_of(MPoly.var(0, 2) * huge, ("c",), 2, 1).value == 2 * u_pow(1)
    assert beta_of(MPoly.var(0, 2) * -huge, ("c",), 2, 1).value == 0
    # v^2 = huge: the quotient would overflow a float
    assert engine._recognize(MPoly.var(0, 2) - MPoly.const(huge), EQ) == 2


# -- the exact behaviour of decompose ---------------------------------------------

# sha256 over every outcome field of these cells, traces included, as the
# engine produced them before rule matching read cached polynomial summaries.
# A change of rule order changes the trace and fails this even where the
# values agree; a deliberate change of behaviour must record a new digest.
PINNED_DIGEST = "4f0cc74e3062dd4e0f610b317bf34a8cb3ba83b8d85b8e6a883c9589263c91c8"


def _pinned_cells():
    cells = [(g, n, ch) for g in WITNESS_GERMS for n in range(2, 10) for ch in CHANNELS]
    cells.append((parse_germ("D(5,+,+) (+) Q(1,1)"), 9, "plus"))  # unmatched terminal
    cells += [(parse_germ("J(2,1; a0=1/2) (+) Q(1,0)"), 6, ch) for ch in CHANNELS]
    return cells


# the six rule templates of a run's steps
PIVOT = "[pivot] %s from eq#%s"
PIVOT_NEQ = "[pivot] %s from neq#%s (factor u-1)"
PEEL = "[peel] %s^2-%s^2 in #%s"
SPLIT = "[split] %s"
EMPTY = "[empty]"
LEAF = "[leaf] %s"


def _leaf_paths(steps, names) -> list[str]:
    """The path of each leaf, replayed from a run's steps.

    A stratum's steps end with its one empty, leaf, peel or split step; a
    peel or a split pushes its two children, and the second is run first.
    """
    stack, paths = ["root"], []
    for _, template, var_ids, _ in steps:
        if template in (PIVOT, PIVOT_NEQ):
            continue
        path = stack.pop()
        if template == LEAF:
            paths.append(path)
        elif template == PEEL:
            tag = "peel(%s,%s)" % tuple(names[v] for v in var_ids)
            stack += [f"{path} / {tag}-solve", f"{path} / {tag}-slice"]
        elif template == SPLIT:
            vn = names[var_ids[0]]
            stack += [f"{path} / {vn}=0", f"{path} / {vn}!=0"]
    return paths


def _pinned_run(g, n: int, ch: str):
    poly, blocks = germ_poly(g)
    return beta_of(poly, blocks, n, TARGETS[ch], budget=DEFAULT_BUDGET)


def _pinned_record(g, n: int, ch: str) -> tuple[bytes, bool]:
    """Every outcome field of one cell, trace included, and whether it succeeded."""
    out = _pinned_run(g, n, ch)
    record = [g.render(), str(n), ch, str(out.value), str(out.failure), out.detail]
    record.append(str(out.strata))
    paths = _leaf_paths(out.steps, out.names)
    record += [f"{path}: {value}" for path, value in zip(paths, out.leaves, strict=True)]
    record += out.trace
    return ("\n".join(record) + "\n\n").encode(), out.ok


def test_steps_use_the_six_rule_templates():
    """Every fired rule is one of six templates, and the pinned cells with
    one peeled cell fire all six; a new rule must bring its own template,
    since consumers of the steps group them by template."""
    runs = [_pinned_run(*cell) for cell in _pinned_cells()]
    # no pinned cell has an isolated hyperbolic pair
    runs.append(beta_of(D4PM11, ("a", "b", "c", "c"), 4, 1))
    templates = {template for out in runs for _, template, _, _ in out.steps}
    assert templates == {PIVOT, PIVOT_NEQ, PEEL, SPLIT, EMPTY, LEAF}


def test_decompose_behaviour_is_pinned():
    digest = hashlib.sha256()
    failures = 0
    for g, n, ch in _pinned_cells():
        record, ok = _pinned_record(g, n, ch)
        failures += not ok
        digest.update(record)
    assert failures == 24
    assert digest.hexdigest() == PINNED_DIGEST


def test_caches_never_change_an_answer():
    """The germ expansions, the arc power terms they are built from, the
    zeroings kept on them, the shared variable layouts and the memo of _T
    give the same outcomes from empty caches, from warm ones, and when the
    cells are asked for in reverse order."""
    cells = _pinned_cells()
    engine._expansion.cache_clear()
    engine._power_terms.cache_clear()
    engine._layout.cache_clear()
    engine._T.cache_clear()
    cold = [_pinned_record(*cell)[0] for cell in cells]
    warm = [_pinned_record(*cell)[0] for cell in cells]
    backwards = {i: _pinned_record(*cells[i])[0] for i in reversed(range(len(cells)))}
    reverse = [backwards[i] for i in range(len(cells))]
    for records in (cold, warm, reverse):
        assert hashlib.sha256(b"".join(records)).hexdigest() == PINNED_DIGEST


def test_terminal_slice_that_frees_another_assumed_variable():
    """{a*b = 1, a != 0, b != 0} is the hyperbola, which is R* (beta u - 1).
    _T slices off a = 0, which leaves -1, free of the other assumed b."""
    a, b, one = _v(0), _v(1), MPoly.const(1)
    both = _mask({0, 1})
    assert engine._T(a * b - one, EQ, both, both) == u_pow(1) - 1
    out = decompose(_hand_built(_c1(range(2)), [(a * b - one, EQ), (a * b, NEQ)]))
    assert out.ok, out.detail
    assert out.value == u_pow(1) - 1
    assert out.audit()
