"""Closed-form arc-space cell values.

Expected polynomials are frozen literals: the low-order ones were checked by
hand, the rest were cross-checked against the stratification engine on a
large grid before being written down here.
"""

import ast
import hashlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arczeta.formulas
from arczeta.formulas import (
    VARIANTS,
    OutOfCoverage,
    arc_Ak,
    arc_D4_order4,
    arc_Dk,
    arc_E,
    arc_G,
    arc_order2,
    arc_Q,
    arc_Q_recursive,
)
from arczeta.germs import CHANNEL_OF, FAMILY, GermSpec, formula_cell
from arczeta.upoly import UPoly, u_pow

U = u_pow(1)

SIGS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (0, 3))


def test_quadric_cells_closed_equals_recursive():
    for l in range(2, 13):
        for p in range(0, 5):
            for q in range(0, 5):
                for eps in (1, -1):
                    assert arc_Q(l, eps, (p, q)) == arc_Q_recursive(l, eps, (p, q))


@given(
    st.integers(min_value=2, max_value=16),
    st.sampled_from([1, -1]),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)
def test_quadric_closed_form_satisfies_recursion(l, eps, sig):
    assert arc_Q(l, eps, sig) == arc_Q_recursive(l, eps, sig)


def test_quadric_values():
    assert arc_Q(3, 1, (1, 1)) == 2 * u_pow(4) - 2 * u_pow(3)
    assert arc_Q(3, -1, (1, 1)) == 2 * u_pow(4) - 2 * u_pow(3)
    assert arc_Q(4, 1, (2, 1)) == u_pow(9) + u_pow(8)
    assert arc_Q(2, 1, (2, 1)) == u_pow(5) + u_pow(4)
    assert arc_Q(3, "naive", (1, 1)) == 2 * u_pow(5) - 4 * u_pow(4) + 2 * u_pow(3)
    assert arc_Q(4, "naive", (1, 1)) == 3 * u_pow(6) - 6 * u_pow(5) + 3 * u_pow(4)
    # degenerate-direction-free signatures have no odd-order cells
    for l in (3, 5, 7):
        assert arc_Q(l, 1, (1, 0)).is_zero()
        assert arc_Q(l, 1, (0, 0)).is_zero()
        assert arc_Q(l, "naive", (0, 2)).is_zero()
    with pytest.raises(ValueError, match="arc order must be >= 2, got 1"):
        arc_Q(1, 1, (1, 0))


def test_order2_cell():
    assert arc_order2(3, (1, 1), 1) == u_pow(5) - u_pow(4)
    assert arc_order2(3, (1, 1), "naive") == u_pow(6) - 2 * u_pow(5) + u_pow(4)
    # rank-0 quadratic part: nothing has order exactly 2
    assert arc_order2(2, (0, 0), "naive").is_zero()
    with pytest.raises(ValueError):
        arc_order2(1, (1, 1), 1)


def test_corank1_values():
    assert arc_Ak(2, 1, 3, 1, (1, 1)) == 2 * u_pow(7) - u_pow(6)
    assert arc_Ak(2, 1, 3, "naive", (1, 1)) == 2 * u_pow(8) - 3 * u_pow(7) + u_pow(6)
    assert arc_Ak(3, 1, 4, 1, (1, 1)) == 3 * u_pow(9) - u_pow(8)
    assert arc_Ak(3, -1, 4, 1, (1, 1)) == 3 * u_pow(9) - 3 * u_pow(8)


def test_corank1_sign_blind_below_top_order():
    """The sign of x^(k+1) is invisible until arcs reach order k+1."""
    for k in (3, 4, 5):
        for l in range(2, k + 1):
            for t in (1, -1, "naive"):
                assert arc_Ak(k, 1, l, t, (1, 1)) == arc_Ak(k, -1, l, t, (1, 1))
    # and for even k it never matters at all
    for t in (1, -1, "naive"):
        assert arc_Ak(4, 1, 5, t, (2, 1)) == arc_Ak(4, -1, 5, t, (2, 1))


def test_corank1_coverage_boundary():
    for k in (2, 3, 4):
        with pytest.raises(OutOfCoverage):
            arc_Ak(k, 1, k + 2, 1, (1, 1))
    with pytest.raises(ValueError):
        arc_Ak(1, 1, 2, 1, (1, 1))
    with pytest.raises(ValueError):
        arc_Ak(3, 0, 3, 1, (1, 1))
    with pytest.raises(ValueError):
        arc_Ak(3, 1, 3, "signed", (1, 1))


def test_g_suspension_values():
    assert arc_G(3, 1, (1, 1)) == 2 * u_pow(10) - u_pow(9) - u_pow(8)
    assert arc_G(3, 1, (0, 0)) == u_pow(5) - u_pow(4)
    assert arc_G(5, 1, (0, 0)) == u_pow(8) - u_pow(6)
    assert arc_G(4, 1, (1, 1)) == 2 * u_pow(13) - 2 * u_pow(11)
    assert arc_G(4, "naive", (1, 1)) == (
        2 * u_pow(14) - 2 * u_pow(13) - 2 * u_pow(12) + 2 * u_pow(11)
    )
    # signed cells of odd order do not depend on the target sign
    for l in (3, 5, 7):
        for sig in SIGS:
            assert arc_G(l, 1, sig) == arc_G(l, -1, sig)


def test_g_empty_suspension_odd_orders():
    # at (0, 0) the odd-order cells collapse to u^(2n+2) * (u^n - 1)
    for n in (1, 2, 3):
        assert arc_G(2 * n + 1, 1, (0, 0)) == u_pow(2 * n + 2) * (u_pow(n) - 1)


# -- the memoised jet bases ----------------------------------------------------

JET_BASES = (arc_Q, arc_G)
MEMO_SIGS = tuple((p, q) for p in range(5) for q in range(5) if p + q <= 4)


@pytest.mark.parametrize("base", JET_BASES, ids=lambda f: f.__name__)
def test_jet_bases_equal_their_unmemoised_forms(base):
    for l in range(2, 13):
        for t in (1, -1, "naive"):
            for sig in MEMO_SIGS:
                assert base(l, t, sig) == base.__wrapped__(l, t, sig)
                assert base(l, t, sig) is base(l, t, sig)


@pytest.mark.parametrize("base", JET_BASES, ids=lambda f: f.__name__)
def test_jet_bases_reject_invalid_arguments_whatever_is_cached(base):
    base(2, 1, (1, 0))
    with pytest.raises(ValueError, match="arc order must be >= 2, got 1"):
        base(1, 1, (1, 0))
    with pytest.raises(ValueError, match="target must be"):
        base(2, "signed", (1, 0))
    # 2.0 == 2 and hashes alike: only a typed cache keeps the float out
    with pytest.raises(TypeError):
        base(2.0, 1, (1, 0))


def test_d_family_values():
    assert arc_Dk(4, 1, 1, 3, 1, (1, 1)) == 2 * u_pow(10) - u_pow(9)
    # the curve term u^8 * (beta_D_curve(4, -1) - (u - 1)) = -u^8 with u - 2
    assert arc_Dk(4, 1, -1, 3, 1, (1, 1)) == 2 * u_pow(10) - u_pow(9) - 2 * u_pow(8)
    assert arc_Dk(5, 1, 1, 4, 1, (0, 0)) == 3 * u_pow(6) - u_pow(5)
    assert arc_Dk(5, 1, -1, 4, 1, (0, 0)) == u_pow(6) - u_pow(5)
    assert arc_D4_order4(1, 1, (0, 0)) == u_pow(6) - u_pow(5)
    assert arc_D4_order4(-1, 1, (0, 0)) == 3 * u_pow(6) - 3 * u_pow(5)


def test_d_family_matches_g_below_curve_order():
    for k in (4, 5, 6):
        for l in range(2, k - 1):
            for t in (1, "naive"):
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        assert arc_Dk(k, e1, e2, l, t, (1, 0)) == arc_G(l, t, (1, 0))


def test_d_family_sign_dependencies():
    # even k: the order-(k-1) correction sees e1*e2 only
    for t in (1, -1, "naive"):
        assert arc_Dk(6, 1, 1, 5, t, (1, 1)) == arc_Dk(6, -1, -1, 5, t, (1, 1))
        assert arc_Dk(6, 1, -1, 5, t, (1, 1)) == arc_Dk(6, -1, 1, 5, t, (1, 1))
    # odd k: only e2
    for t in (1, -1, "naive"):
        assert arc_Dk(5, 1, 1, 4, t, (1, 1)) == arc_Dk(5, -1, 1, 4, t, (1, 1))


def test_d_family_coverage_boundary():
    with pytest.raises(OutOfCoverage):
        arc_Dk(5, 1, 1, 5, 1, (1, 1))
    with pytest.raises(OutOfCoverage):
        arc_Dk(6, 1, 1, 6, 1, (1, 1))
    # l = k is covered for k = 4 only (the order-4 class cell)
    assert arc_Dk(4, 1, 1, 4, 1, (0, 0)) == arc_D4_order4(1, 1, (0, 0))
    with pytest.raises(ValueError):
        arc_Dk(3, 1, 1, 2, 1, (1, 1))


def test_cube_jet_cells_are_shared():
    """Every corank-2 germ with 3-jet x^3 + Q has the same order-3 cell."""
    for t in (1, -1, "naive"):
        for sig in SIGS:
            ref = arc_E("CUBE", 3, t, sig)
            for which in ("E6+", "E6-", "E7", "E8"):
                assert arc_E(which, 3, t, sig) == ref
    assert arc_E("CUBE", 3, 1, (1, 1)) == 2 * u_pow(10) - u_pow(9)
    assert arc_E("CUBE", 3, "naive", (1, 1)) == 2 * u_pow(11) - 3 * u_pow(10) + u_pow(9)
    # the D4(+,+) order-3 correction happens to cancel exactly against the
    # cube-jet value, so that one non-cube germ shares the cell too
    assert arc_Dk(4, 1, 1, 3, 1, (1, 1)) == arc_E("CUBE", 3, 1, (1, 1))
    assert arc_Dk(4, 1, -1, 3, 1, (1, 1)) != arc_E("CUBE", 3, 1, (1, 1))


def test_e_family_values():
    assert arc_E("E7", 5, 1, (0, 0)) == u_pow(8) - u_pow(7)
    assert arc_E("E8", 5, 1, (0, 0)) == u_pow(8)
    assert arc_E("E7", 4, 1, (0, 0)).is_zero()
    assert arc_E("E6+", 4, "naive", (0, 0)) == u_pow(7) - u_pow(6)
    assert arc_E("E6-", 4, "naive", (0, 0)) == u_pow(7) - u_pow(6)
    # the naive order-4 cells of the two E6 germs coincide exactly when the
    # suspension signature is swap-symmetric, and only then
    assert arc_E("E6+", 4, "naive", (1, 1)) == arc_E("E6-", 4, "naive", (1, 1))
    assert arc_E("E6+", 4, "naive", (2, 1)) != arc_E("E6-", 4, "naive", (2, 1))


def test_cube_values():
    assert arc_E("CUBE", 5, 1, (1, 1)) == 2 * u_pow(16) - 2 * u_pow(14)
    assert arc_E("CUBE", 5, -1, (1, 1)) == 2 * u_pow(16) - 2 * u_pow(14)
    assert arc_E("CUBE", 4, 1, (0, 0)) == arc_E("E7", 4, 1, (0, 0))


def test_e_and_cube_coverage_boundary():
    with pytest.raises(OutOfCoverage):
        arc_E("E6+", 4, 1, (1, 1))  # signed order-4 E6 needs the oracle
    with pytest.raises(OutOfCoverage):
        arc_E("E6+", 5, 1, (0, 0))
    with pytest.raises(OutOfCoverage):
        arc_E("E7", 6, 1, (0, 0))
    with pytest.raises(OutOfCoverage):
        arc_E("CUBE", 6, 1, (0, 0))
    with pytest.raises(ValueError):
        arc_E("E9", 3, 1, (0, 0))


# -- stated-vs-derived variants ---------------------------------------------


def _derived(v, args):
    """A variant's proof-derived reading: the closed form of the cell it names."""
    fields, n, target = v.cell(*args)
    return formula_cell(GermSpec(**fields), n, CHANNEL_OF[target]).value


BY_ID = {v.id: v for v in VARIANTS}


def test_variant_registry_ids():
    assert tuple(v.id for v in VARIANTS) == (
        "lem2-Q-sign",
        "lem4-display-set",
        "lem5-keven-00",
        "lem5-keven-curve",
        "lem7-A3-first-term",
        "quadra-even-terminal",
    )


def test_variants_disagree_somewhere_on_their_domain():
    """Each registered variant exists because the two readings differ."""
    for v in VARIANTS:
        assert v.domain, v.id
        hits = [args for args in v.domain if v.stated(*args) != _derived(v, args)]
        assert hits, f"{v.id}: stated and derived agree everywhere"


def test_variants_agree_on_some_small_instance():
    """The discrepancies are easy to miss: small instances often coincide."""
    for vid in ("lem2-Q-sign", "lem4-display-set", "quadra-even-terminal"):
        v = BY_ID[vid]
        agree = [args for args in v.domain if v.stated(*args) == _derived(v, args)]
        assert agree, f"{vid}: expected at least one coinciding instance"


def test_variant_quadra_even_terminal_sample():
    v = BY_ID["quadra-even-terminal"]
    # at (2, 1), l = 4 the stated terminal exponent overshoots by u^(2n)
    stated = v.stated(4, 1, (2, 1))
    derived = _derived(v, (4, 1, (2, 1)))
    assert derived == u_pow(9) + u_pow(8)
    assert stated != derived
    assert stated == u_pow(12) + u_pow(11) + u_pow(9) - u_pow(7)


def test_values_are_upoly():
    assert isinstance(arc_G(4, 1, (1, 1)), UPoly)
    assert isinstance(arc_Ak(5, -1, 6, "naive", (0, 2)), UPoly)


# -- every closed-form cell, pinned ------------------------------------------

#: sha256 of every closed-form cell over l = 2..14, p, q <= 4, k = 2..13 (from
#: each family's least k), every sign and all three targets, then both sides of
#: every variant on its domain: the value, or OutOfCoverage and its message.
#: Recorded before the closed forms were rewritten over their target;
#: re-recorded when beta_D_curve(k even, -1) became u - 2, which moves exactly
#: the signed order-(k-1) cells of even-k D_k with e1*e2 = -1, each by
#: -(u + 2)*u^((m+1)(p+q) + 3m + 1), m = (k-2)/2, and adds the 144 records
#: of the variant lem5-keven-curve.
PINNED_CELLS_DIGEST = "87cb77908f9d4d72d6bf6eef4abf38f6e551f84f0a27212c174a00964255fe8d"


def _cell_text(compute) -> str:
    try:
        return str(compute())
    except OutOfCoverage as oc:
        return f"OutOfCoverage: {oc}"


def _closed_form_records():
    for family, fam in sorted(FAMILY.items()):
        if fam.cells is None:
            continue
        ks = [None] if fam.kmin is None else range(fam.kmin, 14)
        for k in ks:
            for signs in itertools.product((1, -1), repeat=fam.nsigns):
                for sig in itertools.product(range(5), repeat=2):
                    g = GermSpec(family, sig, k, signs=signs)
                    for n in range(2, 15):
                        for t in (1, -1, "naive"):
                            text = _cell_text(lambda: fam.cells(g, n, t))
                            yield f"{family} {k} {signs} {sig} {n} {t!r}: {text}"
    for v in VARIANTS:
        for args in v.domain:
            yield f"{v.id} {args!r}: {_cell_text(lambda: v.stated(*args))}"
            yield f"{v.id} {args!r}: {_cell_text(lambda: _derived(v, args))}"


def test_every_closed_form_cell_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for record in _closed_form_records():
        digest.update(record.encode() + b"\n")
        count += 1
    assert count == 69_661
    assert digest.hexdigest() == PINNED_CELLS_DIGEST


# -- the target enters in one place ------------------------------------------

#: The functions of ``formulas`` that may compare with "naive": the target
#: check and the four target-set helpers.  Every other formula is written
#: once over its target and reaches it through them.
TARGET_READERS = {"_check_target", "_lead", "_Y_at", "_power_at", "_curve_at"}


def _is_coverage_rule(node: ast.If) -> bool:
    """``if <test>: raise OutOfCoverage(...)`` and nothing else."""
    return (
        len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
        and isinstance(node.body[0].exc, ast.Call)
        and getattr(node.body[0].exc.func, "id", None) == "OutOfCoverage"
        and not node.orelse
    )


def naive_forks(source: str) -> list[str]:
    """'line N: owner' for each comparison with "naive" outside the target
    readers, allowing arc_E one coverage rule (E6's naive-only order 4)."""
    forks = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        if owner in TARGET_READERS:
            continue
        rules = [
            node.test
            for node in ast.walk(top)
            if owner == "arc_E" and isinstance(node, ast.If) and _is_coverage_rule(node)
        ]
        compares = [
            node
            for node in ast.walk(top)
            if isinstance(node, ast.Compare)
            and any(getattr(c, "value", None) == "naive" for c in ast.walk(node))
        ]
        allowed = [c for c in compares if c in rules][:1]
        forks += [f"line {c.lineno}: {owner}" for c in compares if c not in allowed]
    return forks


def test_formulas_read_the_target_only_through_its_helpers():
    assert naive_forks(Path(arczeta.formulas.__file__).read_text()) == []


def test_naive_forks_finds_a_fork():
    fork = 'def arc_X(t):\n    return 1 if t == "naive" else 2\n'
    assert naive_forks(fork) == ["line 2: arc_X"]
    rule = 'def arc_E(t):\n    if t != "naive":\n        raise OutOfCoverage("x")\n'
    assert naive_forks(rule) == []
    second = '    if t == "naive":\n        raise OutOfCoverage("y")\n'
    assert naive_forks(rule + second) == ["line 4: arc_E"]
    assert naive_forks('def _lead(t):\n    return t == "naive"\n') == []
