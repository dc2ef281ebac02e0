"""Germ specifications, cell resolution policies, and zeta tables."""

import csv
import dataclasses
import io
import json
import re
from fractions import Fraction

import pytest

from arczeta import germs
from arczeta.classifier import enumerate_simple
from arczeta.engine import BUDGET_ENV, EngineOutcome, beta_of
from arczeta.formulas import OutOfCoverage, arc_order2
from arczeta.germs import (
    CHANNELS,
    FAMILY,
    TARGETS,
    Cell,
    CrossCheckError,
    GermSpec,
    _dual,
    _flip,
    _json,
    _oracle_cached,
    _representative,
    analytic_equiv,
    apply_signed_permutation,
    canonicalize,
    corank_index,
    formula_cell,
    germ_poly,
    oracle_cell,
    resolve_cell,
    zeta_table,
)
from arczeta.mpoly import MPoly
from arczeta.parser import parse_germ
from arczeta.upoly import u_pow


def A(k, sign=1, sig=(1, 1)):
    return GermSpec("AK", sig, k=k, signs=(sign,))


def D(k, e1, e2, sig=(1, 1)):
    return GermSpec("DK", sig, k=k, signs=(e1, e2))


# -- construction and rendering ----------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        GermSpec("B", (1, 1))
    with pytest.raises(ValueError):
        GermSpec("AK", (1, 1), k=1, signs=(1,))
    with pytest.raises(ValueError):
        GermSpec("AK", (1, 1), k=3)  # missing sign
    with pytest.raises(ValueError):
        GermSpec("DK", (1, 1), k=4, signs=(1,))
    with pytest.raises(ValueError):
        GermSpec("DK", (1, 1), k=3, signs=(1, 1))
    with pytest.raises(ValueError):
        GermSpec("E6", (1, 1))
    with pytest.raises(ValueError):
        GermSpec("E7", (1, 1), k=4)
    with pytest.raises(ValueError):
        GermSpec("CUBE", (-1, 0))


# One valid spec per family, written out independently of the family table:
# (surface token, GermSpec keywords).
VALID_SPECS = {
    "Q": ("Q", {}),
    "AK": ("A", {"k": 2, "signs": (1,)}),
    "DK": ("D", {"k": 4, "signs": (1, -1)}),
    "E6": ("E6", {"signs": (-1,)}),
    "E7": ("E7", {}),
    "E8": ("E8", {}),
    "CUBE": ("CUBE", {}),
    "G": ("G", {}),
    "JKI": ("J", {"k": 2, "i": 0}),
}


def _invalid_variants(family):
    """(rule, keywords) pairs that each break exactly one rule of ``family``."""
    _, valid = VALID_SPECS[family]
    out = []
    if "k" in valid:
        out += [
            ("k below its least", {**valid, "k": valid["k"] - 1}),
            ("no k", {**valid, "k": None}),
        ]
    else:
        out.append(("a k", {**valid, "k": 4}))
    if family != "JKI":
        out += [
            ("an i", {**valid, "i": 0}),
            ("params", {**valid, "params": (("b", Fraction(1)),)}),
        ]
    signs = valid.get("signs", ())
    out.append(("one sign too many", {**valid, "signs": signs + (1,)}))
    if signs:
        out += [
            ("one sign too few", {**valid, "signs": signs[:-1]}),
            ("a sign outside +-1", {**valid, "signs": (0,) + signs[1:]}),
        ]
    return out


@pytest.mark.parametrize("family", sorted(VALID_SPECS))
def test_every_family_validates_its_parameters(family):
    token, valid = VALID_SPECS[family]
    assert GermSpec(family, (1, 0), **valid).family == family
    for rule, kwargs in _invalid_variants(family):
        with pytest.raises(ValueError) as exc_info:
            GermSpec(family, (1, 0), **kwargs)
        # the message names the family, by its key or its surface token
        message = str(exc_info.value)
        assert re.search(rf"\b({family}|{token})\b", message), (rule, message)


def test_jki_validation_and_defaults():
    g = GermSpec("JKI", (1, 1), k=2, i=0)
    assert g.params == (("b", Fraction(1)), ("c", Fraction(1)))
    g = GermSpec("JKI", (0, 0), k=2, i=1)
    assert g.params == (("a0", Fraction(1)), ("s", Fraction(1)))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=0, params=(("c", Fraction(0)),))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=0, params=(("a0", Fraction(1)),))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=1, params=(("s", Fraction(2)),))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=1, params=(("a0", Fraction(0)),))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=1, params=(("zz", Fraction(1)),))
    # fractional moduli survive normalization
    g = GermSpec("JKI", (0, 0), k=3, i=0, params=(("b", Fraction(5, 2)),))
    assert g.param("b") == Fraction(5, 2)
    assert g.param("c") == 1


def test_render():
    assert A(2).render() == "A(2) (+) Q(1,1)"
    assert A(2, -1).render() == "A(2,-) (+) Q(1,1)"
    assert A(3, 1).render() == "A(3,+) (+) Q(1,1)"
    assert D(4, 1, -1).render() == "D(4,+,-) (+) Q(1,1)"
    assert GermSpec("E6", (0, 1), signs=(1,)).render() == "E6(+) (+) Q(0,1)"
    assert GermSpec("E7", (0, 0)).render() == "E7 (+) Q(0,0)"
    assert GermSpec("CUBE", (2, 1)).render() == "CUBE (+) Q(2,1)"
    assert GermSpec("Q", (2, 2)).render() == "Q (+) Q(2,2)"
    assert (
        GermSpec("JKI", (1, 1), k=2, i=0).render() == "J(2,0; b=1, c=1) (+) Q(1,1)"
    )
    assert (
        GermSpec("JKI", (0, 0), k=2, i=1).render() == "J(2,1; a0=1, s=1) (+) Q(0,0)"
    )


def test_dimensions_and_corank():
    assert GermSpec("Q", (2, 1)).d == 3
    assert A(4, 1, (2, 1)).d == 4
    assert D(5, 1, 1, (2, 1)).d == 5
    assert GermSpec("E8", (0, 0)).d == 2
    assert GermSpec("Q", (2, 1)).corank == 0
    assert A(4, 1, (2, 1)).corank == 1
    assert GermSpec("CUBE", (3, 0)).corank == 2


def test_germ_poly_blocks():
    poly, blocks = germ_poly(A(2))
    assert blocks == ("a", "c", "c")
    assert poly == MPoly.var(0, 3) + MPoly.var(1, 2) - MPoly.var(2, 2)
    poly, blocks = germ_poly(GermSpec("E7", (1, 0)))
    assert blocks == ("a", "b", "c")
    assert poly == MPoly.var(0, 3) + MPoly.var(0) * MPoly.var(1, 3) + MPoly.var(2, 2)
    poly, blocks = germ_poly(GermSpec("G", (0, 1)))
    assert poly == MPoly.var(0) * MPoly.var(1, 2) - MPoly.var(2, 2)


# -- equivalence --------------------------------------------------------------


def test_canonicalize():
    assert canonicalize(A(2, -1)) == A(2, 1)
    assert canonicalize(A(3, -1)) == A(3, -1)
    assert canonicalize(D(5, -1, 1)) == D(5, 1, 1)
    assert canonicalize(D(5, 1, -1)) == D(5, 1, -1)
    assert canonicalize(D(4, -1, -1)) == D(4, 1, 1)
    assert canonicalize(D(4, -1, 1)) == D(4, 1, -1)
    assert canonicalize(D(4, 1, -1)) == D(4, 1, -1)
    # idempotent on everything
    for g in (A(2, -1), A(5, -1), D(6, -1, 1), GermSpec("E8", (1, 1))):
        assert canonicalize(canonicalize(g)) == canonicalize(g)


def test_analytic_equiv():
    assert analytic_equiv(A(2, 1), A(2, -1))
    assert not analytic_equiv(A(3, 1), A(3, -1))
    assert analytic_equiv(D(4, 1, 1), D(4, -1, -1))
    assert not analytic_equiv(D(4, 1, 1), D(4, 1, -1))
    assert not analytic_equiv(
        GermSpec("E6", (1, 1), signs=(1,)), GermSpec("E6", (1, 1), signs=(-1,))
    )
    with pytest.raises(ValueError):
        analytic_equiv(GermSpec("CUBE", (1, 1)), GermSpec("E7", (1, 1)))


def test_equivalent_germs_share_all_cells():
    pairs = [
        (A(2, 1), A(2, -1)),
        (D(4, 1, 1), D(4, -1, -1)),
        (D(5, 1, -1, (1, 0)), D(5, -1, -1, (1, 0))),
    ]
    for g1, g2 in pairs:
        for n in range(2, 6):
            for ch in CHANNELS:
                c1 = resolve_cell(g1, n, ch, "auto")
                c2 = resolve_cell(g2, n, ch, "auto")
                assert c1.value == c2.value, (g1.render(), g2.render(), n, ch)


def test_signed_permutation_invariance():
    g = A(3, 1, (1, 1))
    poly, blocks = germ_poly(g)
    # push the degenerate direction to the end and flip two signs
    perm, flips = [2, 0, 1], [1, -1, -1]
    poly2, blocks2 = apply_signed_permutation(poly, blocks, perm, flips)
    assert sorted(blocks2) == sorted(blocks)
    for n in (2, 3, 4):
        for target in (1, -1, "naive"):
            a = beta_of(poly, blocks, n, target)
            b = beta_of(poly2, blocks2, n, target)
            assert a.ok and b.ok
            assert a.value == b.value


def test_signed_permutation_validation():
    poly, blocks = germ_poly(A(2))
    with pytest.raises(ValueError):
        apply_signed_permutation(poly, blocks, [0, 0, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        apply_signed_permutation(poly, blocks, [0, 1, 2], [1, 1, 2])


# x -> -x (and y -> -y for E8) carries -f to the dual's core polynomial.
DUAL_CORE_FLIPS = {
    "E6": [-1, 1], "E7": [-1, 1], "E8": [-1, -1], "CUBE": [-1, 1], "G": [-1, 1], "JKI": [-1, 1],
}


def dual_permutation(g):
    """The signed permutation taking -germ_poly(g) to germ_poly(_dual(g))."""
    core = {"Q": 0, "AK": 1}.get(g.family, 2)
    p, q = g.sig
    # the suspension's positive and negative squares trade places
    perm = list(range(core)) + [core + q + i for i in range(p)] + [core + j for j in range(q)]
    flips = DUAL_CORE_FLIPS.get(g.family, [1, 1])[:core] + [1] * (p + q)
    return perm, flips


def test_dual_is_negation_up_to_a_signed_permutation():
    pool = [
        GermSpec("Q", (2, 1)),
        A(2, 1, (1, 0)),
        A(3, -1, (0, 2)),
        D(4, 1, -1, (1, 0)),
        D(5, -1, -1, (2, 1)),
        GermSpec("E6", (0, 1), signs=(1,)),
        GermSpec("E7", (1, 2)),
        GermSpec("E8", (0, 0)),
        GermSpec("CUBE", (2, 0)),
        GermSpec("G", (0, 3)),
        GermSpec("JKI", (1, 0), k=2, i=0, params=(("b", Fraction(1, 2)),)),
        GermSpec("JKI", (0, 1), k=3, i=0, params=(("b", Fraction(0)), ("a0", Fraction(2)))),
        GermSpec("JKI", (2, 0), k=2, i=1, params=(("a0", Fraction(1, 2)), ("a1", Fraction(3)))),
        GermSpec("JKI", (1, 1), k=3, i=2, params=(("s", Fraction(-1)), ("a3", Fraction(-1, 4)))),
    ]
    for g in pool:
        h = _dual(g)
        assert h.sig == g.sig[::-1] and (h.family, h.k, h.i) == (g.family, g.k, g.i)
        assert GermSpec(h.family, h.sig, h.k, h.i, h.signs, h.params) == h
        assert _dual(h) == g
        poly, blocks = germ_poly(g)
        assert apply_signed_permutation(-poly, blocks, *dual_permutation(g)) == germ_poly(h)
    assert _dual(D(4, 1, -1)).signs == (-1, 1)
    assert _dual(pool[10]).params == (("b", Fraction(-1, 2)), ("c", Fraction(-1)))
    assert dict(_dual(pool[11]).params)["a0"] == 2  # J(k,0) keeps its a_m
    assert dict(_dual(pool[12]).params) == {"a0": -Fraction(1, 2), "a1": -3, "s": -1}


def test_flip_is_x1_negation():
    for d in (2, 3):
        for g in enumerate_simple(d):
            if g.family not in ("AK", "DK"):
                continue  # no sign identity: _flip leaves the germ as it is
            poly, blocks = germ_poly(g)
            flips = [-1] + [1] * (g.d - 1)
            assert apply_signed_permutation(poly, blocks, list(range(g.d)), flips) == germ_poly(
                _flip(g)
            ), g.render()
            assert _flip(_flip(g)) == g
    assert _flip(A(2, 1)) == A(2, -1) and _flip(A(3, 1)) == A(3, 1)
    assert _flip(D(4, 1, -1)) == D(4, -1, 1) and _flip(D(5, 1, -1)) == D(5, -1, -1)
    for g in (GermSpec("E6", (1, 1), signs=(-1,)), GermSpec("G", (0, 1))):
        assert _flip(g) is g


def _sample(family):
    """One spec of ``family``, built from its FAMILY entry alone."""
    fam = FAMILY[family]
    i = 0 if family == "JKI" else None
    return GermSpec(family, (2, 1), k=fam.kmin, i=i, signs=(-1, 1)[: fam.nsigns])


@pytest.mark.parametrize("family", list(FAMILY))
def test_every_family_entry_is_consistent(family):
    fam = FAMILY[family]
    g = _sample(family)
    assert parse_germ(g.render()) == g
    poly, blocks = germ_poly(g)
    assert len(blocks) == g.d and g.corank == g.d - sum(g.sig) == fam.corank
    assert fam.core(g).vars() <= set(range(fam.corank))
    assert poly.vars() <= set(range(g.d))
    assert _dual(_dual(g)) == g
    for ch in CHANNELS:
        if fam.cells is None:
            with pytest.raises(OutOfCoverage):
                formula_cell(g, 2, ch)
        else:
            # the order-2 cells see only the quadratic suspension
            assert formula_cell(g, 2, ch) == arc_order2(g.d, g.sig, TARGETS[ch])


# -- cell resolution -----------------------------------------------------------


def test_formula_cell_matches_closed_forms():
    assert formula_cell(A(2), 3, "plus") == 2 * u_pow(7) - u_pow(6)
    assert formula_cell(GermSpec("E8", (0, 0)), 5, "plus") == u_pow(8)


def test_formula_cell_keeps_out_of_coverage(monkeypatch):
    family = FAMILY["AK"]
    calls = []

    def counting(g, n, t):
        calls.append((g, n, t))
        return family.cells(g, n, t)

    monkeypatch.setitem(FAMILY, "AK", dataclasses.replace(family, cells=counting))
    germs._formula_outcome.cache_clear()
    raised = []
    for _ in range(2):
        with pytest.raises(OutOfCoverage) as info:
            formula_cell(A(2), 4, "plus")  # coverage ends at n = k+1 = 3
        raised.append(info.value)
    assert [str(e) for e in raised] == ["A_k cell l=4 > k+1=3: use the oracle"] * 2
    assert raised[0] is not raised[1]  # a fresh exception, its traceback not grown
    assert len(calls) == 1
    germs._formula_outcome.cache_clear()


def test_resolve_cell_sources():
    g = A(2)  # coverage ends at n = k+1 = 3
    c = resolve_cell(g, 3, "plus", "formulas")
    assert (c.value, c.provenance) == (2 * u_pow(7) - u_pow(6), "formula")
    c = resolve_cell(g, 4, "plus", "formulas")
    assert c.value is None and c.provenance == "unavailable"
    assert "oracle" in c.note

    c = resolve_cell(g, 4, "plus", "oracle")
    assert (c.value, c.provenance) == (2 * u_pow(9) - u_pow(8) - u_pow(7), "oracle")

    c = resolve_cell(g, 3, "plus", "hybrid")
    assert (c.value, c.provenance, c.note) == (
        2 * u_pow(7) - u_pow(6),
        "formula",
        "oracle-checked",
    )
    c = resolve_cell(g, 4, "plus", "hybrid")
    assert (c.value, c.provenance) == (2 * u_pow(9) - u_pow(8) - u_pow(7), "oracle")

    c = resolve_cell(g, 3, "plus", "auto")
    assert (c.value, c.provenance, c.note) == (2 * u_pow(7) - u_pow(6), "formula", "")

    with pytest.raises(ValueError):
        resolve_cell(g, 3, "plus", "best-effort")


def test_hybrid_raises_on_a_wrong_closed_form(monkeypatch):
    """A closed form that disagrees with the engine is a defect: hybrid raises
    and names the cell and both values."""
    g = A(2)
    right = formula_cell(g, 3, "plus")
    wrong = right + u_pow(1)
    real = germs.formula_cell

    def patched(h, n, ch):
        return wrong if (h, n, ch) == (g, 3, "plus") else real(h, n, ch)

    monkeypatch.setattr(germs, "formula_cell", patched)
    assert resolve_cell(g, 3, "minus", "hybrid").note == "oracle-checked"
    with pytest.raises(CrossCheckError) as info:
        resolve_cell(g, 3, "plus", "hybrid")
    err = info.value
    assert (err.germ, err.n, err.channel, err.formula, err.oracle) == (g, 3, "plus", wrong, right)
    assert str(err) == f"cell ({g.render()}, n=3, plus): formula {wrong} != oracle {right}"
    # auto trusts the closed form unchecked
    assert resolve_cell(g, 3, "plus", "auto").value == wrong


def test_hybrid_keeps_the_closed_form_when_the_oracle_fails():
    g = A(2)
    failed = EngineOutcome(None, "depth-exceeded", "stub", 0, [])
    c = resolve_cell(g, 3, "plus", "hybrid", oracle=lambda *args: failed)
    assert c == Cell(formula_cell(g, 3, "plus"), "formula", "cross-check unavailable (depth-exceeded)")


def test_unknown_source_raises_before_any_work(monkeypatch):
    def never(*args):
        raise AssertionError("consulted for an unknown source")

    monkeypatch.setattr(germs, "formula_cell", never)
    for n in (3, 4):  # covered by a formula, and not
        with pytest.raises(ValueError, match="unknown source 'formula'"):
            resolve_cell(A(2), n, "plus", "formula", oracle=never)


@pytest.mark.parametrize("source", ["formulas", "oracle", "hybrid", "auto"])
def test_resolve_cell_consults_the_oracle_at_most_once(source):
    calls = []

    def oracle(g, n, channel):
        calls.append(n)
        return oracle_cell(g, n, channel)

    for n in (3, 4):  # covered by a formula, and not
        resolve_cell(A(2), n, "plus", source, oracle=oracle)
    expected = {"formulas": [], "oracle": [3, 4], "hybrid": [3, 4], "auto": [4]}
    assert calls == expected[source]


def test_resolve_cell_unavailable_when_everything_fails():
    g = D(4, 1, -1, (1, 0))  # deep definite-suspension cell: no formula, no oracle
    c = resolve_cell(g, 6, "plus", "auto")
    assert c.value is None
    assert c.provenance == "unavailable"
    assert "unmatched-terminal" in c.note


def test_oracle_cell_cache_and_trace_bypass():
    # traced runs call the engine directly (test_cli covers zeta --trace)
    g = A(2)
    plain = oracle_cell(g, 3, "plus")
    again = oracle_cell(g, 3, "plus")
    assert plain is again  # cached


def test_hybrid_cross_check_clean_on_sample():
    for g in (A(3, 1), A(3, -1), GermSpec("E8", (0, 0)), D(5, 1, 1, (1, 0))):
        t = zeta_table(g, 5, source="hybrid")
        for n, cells in t.rows:
            for ch in CHANNELS:
                assert cells[ch].provenance in ("formula", "oracle", "unavailable")


# -- zeta tables ---------------------------------------------------------------


def test_zeta_table_values_and_provenance():
    t = zeta_table(A(2), 4, source="hybrid")
    assert [n for n, _ in t.rows] == [2, 3, 4]
    assert t.d == 3
    assert t.cell(2, "plus").value == u_pow(5) - u_pow(4)
    assert t.cell(2, "naive").value == u_pow(6) - 2 * u_pow(5) + u_pow(4)
    assert t.cell(3, "plus").value == 2 * u_pow(7) - u_pow(6)
    assert t.cell(3, "naive").value == 2 * u_pow(8) - 3 * u_pow(7) + u_pow(6)
    assert t.cell(4, "plus").value == 2 * u_pow(9) - u_pow(8) - u_pow(7)
    assert t.cell(4, "naive").value == 2 * u_pow(10) - 3 * u_pow(9) + u_pow(7)
    assert t.cell(3, "plus").provenance == "formula"
    assert t.cell(4, "plus").provenance == "oracle"
    assert t.unavailable() == []
    with pytest.raises(KeyError):
        t.cell(9, "plus")


def test_zeta_table_empty_suspension_quadric_is_zero():
    t = zeta_table(GermSpec("Q", (0, 0)), 4, source="hybrid")
    for n, cells in t.rows:
        for ch in CHANNELS:
            assert cells[ch].value is not None
            assert cells[ch].value.is_zero()


def test_z_text():
    t = zeta_table(A(2), 4, source="hybrid")
    assert t.z_text("plus") == (
        "Z(T) = (u^5 - u^4)*T^2 + (2*u^7 - u^6)*T^3 "
        "+ (2*u^9 - u^8 - u^7)*T^4 + O(T^5)"
    )


def test_zeta_table_json():
    t = zeta_table(A(2), 3, source="hybrid")
    data = json.loads(t.to_json())
    assert data["germ"] == "A(2) (+) Q(1,1)"
    assert data["d"] == 3
    assert data["N"] == 3
    assert data["source"] == "hybrid"
    assert data["rows"][0]["n"] == 2
    assert data["rows"][1]["plus"] == "2*u^7 - u^6"
    assert data["rows"][1]["provenance"]["plus"] == "formula (oracle-checked)"


# The stdlib writes floats and tuples, but a value object must never leak
# into JSON: it is rendered with ``str`` first.
@pytest.mark.parametrize("value", [Fraction(1, 2), u_pow(1) - 1], ids=repr)
def test_json_writer_rejects_other_types(value):
    for obj in (value, [value], {"key": value}):
        with pytest.raises(TypeError):
            _json(obj)


def test_zeta_table_csv_round_trip():
    t = zeta_table(A(2), 4, source="hybrid")
    rows = list(csv.reader(io.StringIO(t.to_csv())))
    assert rows[0] == ["germ", "d", "n", "channel", "value", "provenance"]
    body = rows[1:]
    assert len(body) == 3 * 3  # three rows, three channels
    for germ, d, n, channel, value, provenance in body:
        assert germ == "A(2) (+) Q(1,1)"
        assert d == "3"
        cell = t.cell(int(n), channel)
        assert value == (str(cell.value) if cell.value is not None else "")
        assert provenance == cell.provenance


def test_zeta_table_text_marks_unavailable():
    t = zeta_table(D(4, 1, -1, (1, 0)), 6, source="auto")
    assert t.unavailable()
    assert "<unavailable>" in t.to_text()
    assert "[no value at T^" in t.z_text("plus")


def test_zeta_table_validation():
    with pytest.raises(ValueError):
        zeta_table(A(2), 1)


# -- corank/index recovery ------------------------------------------------------


def test_corank_index_examples():
    assert corank_index(A(5, 1, (2, 1))) == (1, (2, 1))
    assert corank_index(GermSpec("E7", (1, 1))) == (2, (1, 1))
    assert corank_index(GermSpec("CUBE", (0, 0))) == (2, (0, 0))
    assert corank_index(GermSpec("Q", (2, 2))) == (0, (2, 2))
    assert corank_index(GermSpec("JKI", (1, 0), k=2, i=0)) == (2, (1, 0))


def test_cell_dataclass_frozen():
    c = Cell(u_pow(1), "formula")
    with pytest.raises(Exception):
        c.value = None  # type: ignore[misc]


def test_oracle_cache_keys_on_budget(monkeypatch):
    """A cell cached under one stratum budget is not served under another."""
    g = D(4, 1, 1, sig=(1, 0))
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    first = oracle_cell(g, 6, "plus")
    assert (first.failure, first.strata) == ("unmatched-terminal", 8)
    monkeypatch.setenv(BUDGET_ENV, "1")
    assert oracle_cell(g, 6, "plus").failure == "depth-exceeded"
    monkeypatch.delenv(BUDGET_ENV)
    assert oracle_cell(g, 6, "plus") is first


@pytest.fixture
def empty_oracle_cache():
    _oracle_cached.cache_clear()
    yield
    _oracle_cached.cache_clear()


def test_oracle_cell_shares_a_success_across_the_orbit(empty_oracle_cache):
    g = A(3, 1)
    out = oracle_cell(g, 3, "plus")
    assert out.ok
    # t -> -t at odd n, and the dual A(3,-) with plus and minus swapped
    for h, ch in ((g, "minus"), (A(3, -1), "minus"), (A(3, -1), "plus")):
        assert oracle_cell(h, 3, ch) is out
    assert _oracle_cached.cache_info().currsize == 1
    # at even n plus and minus are different sets: one run each
    assert oracle_cell(g, 2, "plus") is not oracle_cell(g, 2, "minus")
    assert _oracle_cached.cache_info().currsize == 3
    # x1 -> -x1 takes A(2,+) to A(2,-) in the same channel
    g = A(2, 1, (1, 0))
    out = oracle_cell(g, 4, "plus")
    assert out.ok and oracle_cell(A(2, -1, (1, 0)), 4, "plus") is out
    assert oracle_cell(A(2, -1, (1, 0)), 4, "minus") is oracle_cell(g, 4, "minus")
    assert oracle_cell(g, 4, "minus") is not out
    assert _oracle_cached.cache_info().currsize == 5
    # over Q(1,1), A(2) is its own negation up to x1 -> -x1: plus is minus
    assert oracle_cell(A(2), 4, "plus") is oracle_cell(A(2), 4, "minus")
    assert _oracle_cached.cache_info().currsize == 6
    # a D_4 orbit at even n: D(4,+,-), its flip D(4,-,+), and both duals
    out = oracle_cell(D(4, 1, -1), 2, "plus")
    assert out.ok
    for h, ch in ((D(4, -1, 1), "plus"), (D(4, -1, 1), "minus"), (D(4, 1, -1), "minus")):
        assert oracle_cell(h, 2, ch) is out
    assert _oracle_cached.cache_info().currsize == 7


def test_a_failing_orbit_shares_the_representatives_failure(monkeypatch, empty_oracle_cache):
    """A failure crosses the orbit too, and its detail names the cell it ran on."""
    runs = []

    def engine(poly, blocks, n, target, budget=None):
        runs.append(target)
        terms = sorted(str(c) for _, c in poly.terms())
        return EngineOutcome(None, "unmatched-terminal", f"{target}: {terms}", 1, [])

    monkeypatch.setattr(germs, "beta_of", engine)
    orbits = [
        # (A(3,+), 2, plus) and its dual, the least
        ([(A(3, 1), "plus"), (A(3, -1), "minus")], (A(3, -1), "minus")),
        # D(4,+,-) and its flip D(4,-,+), each in both channels; the flip's plus is least
        (
            [(D(4, 1, -1), "plus"), (D(4, -1, 1), "minus"), (D(4, -1, 1), "plus"),
             (D(4, 1, -1), "minus")],
            (D(4, -1, 1), "plus"),
        ),
    ]
    for members, (rep, rep_channel) in orbits:
        own = engine(*germ_poly(rep), 2, TARGETS[rep_channel])
        runs.clear()
        g, ch = members[0]
        first = oracle_cell(g, 2, ch)
        assert first.failure == "unmatched-terminal"
        assert first.detail == f"on {rep.render()} n=2 {rep_channel}: {own.detail}"
        for g, ch in members:
            assert _representative(g, 2, ch) == (rep, rep_channel)
            assert oracle_cell(g, 2, ch) is first
        assert runs == [TARGETS[rep_channel]]  # one engine run per orbit


def test_every_orbit_member_has_its_representatives_outcome(empty_oracle_cache):
    """The premise of sharing: no orbit has members that both fail and succeed."""
    own_failures = 0
    for d in (2, 3):
        for g in enumerate_simple(d):
            poly, blocks = germ_poly(g)
            for n in range(2, 8):
                for ch in CHANNELS:
                    own = beta_of(poly, blocks, n, TARGETS[ch])
                    shared = oracle_cell(g, n, ch)
                    assert (own.ok, own.value) == (shared.ok, shared.value), (g.render(), n, ch)
                    own_failures += not own.ok
    assert own_failures  # the grid reaches cells the engine cannot finish


def test_hybrid_tables_do_not_depend_on_the_germ_order(empty_oracle_cache):
    specs = enumerate_simple(3)
    forward = [zeta_table(g, 7).to_json() for g in specs]
    _oracle_cached.cache_clear()
    backward = [zeta_table(g, 7).to_json() for g in reversed(specs)]
    assert forward == backward[::-1]
    assert any("unavailable (unmatched-terminal: on " in table for table in forward)


# The (germ, n) pairs on which the identity below fails today: every one is a
# D_k with k even and e1*e2 = -1, whose closed form and engine terminal both
# read the curve fiber beta_D_curve(k even, -1) = 2u.  ROADMAP item 1 derives
# u - 2 for that fiber; when it lands this set is empty.
CHI_C_FAILURES = {
    ("D(4,+,-) (+) Q(0,0)", 3),
    ("D(4,+,-) (+) Q(0,0)", 6),
    ("D(4,+,-) (+) Q(0,0)", 9),
    ("D(4,+,-) (+) Q(0,1)", 3),
    ("D(4,+,-) (+) Q(1,0)", 3),
    ("D(4,-,+) (+) Q(0,0)", 3),
    ("D(4,-,+) (+) Q(0,0)", 6),
    ("D(4,-,+) (+) Q(0,0)", 9),
    ("D(4,-,+) (+) Q(0,1)", 3),
    ("D(4,-,+) (+) Q(1,0)", 3),
    ("D(6,+,-) (+) Q(0,0)", 5),
    ("D(6,+,-) (+) Q(0,1)", 5),
    ("D(6,+,-) (+) Q(1,0)", 5),
    ("D(6,-,+) (+) Q(0,0)", 5),
    ("D(6,-,+) (+) Q(0,1)", 5),
    ("D(6,-,+) (+) Q(1,0)", 5),
    ("D(8,+,-) (+) Q(0,0)", 7),
    ("D(8,+,-) (+) Q(0,1)", 7),
    ("D(8,+,-) (+) Q(1,0)", 7),
    ("D(8,-,+) (+) Q(0,0)", 7),
    ("D(8,-,+) (+) Q(0,1)", 7),
    ("D(8,-,+) (+) Q(1,0)", 7),
}


def test_euler_characteristic_identity_across_channels():
    """t -> lambda*t makes A_n a product of A_n^{+1} (and A_n^{-1}) with R* or
    R_{>0}, and chi_c = beta(-1) sees that: at odd n plus = minus and
    naive = -2*plus, at even n naive = -(plus + minus)."""
    checked = 0
    failures = set()
    for d in (2, 3):
        for g in enumerate_simple(d):
            for n in range(2, 10):
                values = [resolve_cell(g, n, ch, "auto").value for ch in CHANNELS]
                if None in values:
                    continue
                checked += 1
                plus, minus, naive = (v.eval_at(-1) for v in values)
                holds = (plus == minus and naive == -2 * plus) if n % 2 else naive == -(plus + minus)
                if not holds:
                    failures.add((g.render(), n))
    assert checked == 1085
    assert failures == CHI_C_FAILURES
