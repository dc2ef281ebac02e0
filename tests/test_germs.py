"""Germ specifications, cell resolution policies, and zeta tables."""

import copy
import csv
import dataclasses
import io
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arczeta import germs
from arczeta.classifier import ade_table, distinguish, enumerate_simple
from arczeta.engine import BUDGET_ENV, EngineOutcome, beta_of
from arczeta.formulas import OutOfCoverage, arc_order2
from arczeta.germs import (
    CHANNELS,
    FAMILY,
    TARGETS,
    Cell,
    SOURCES,
    CrossCheckError,
    GermSpec,
    _dual,
    _flip,
    _json,
    _oracle_cached,
    _relatives,
    _representative,
    _table_oracle,
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
from arczeta.upoly import U_MINUS_1, u_pow


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
    for sig in ((0, 0, 0), (1,)):
        message = f"signature must be a pair (p, q), got {sig}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GermSpec("E7", sig)
    with pytest.raises(ValueError, match="J parameter 'b' is given more than once"):
        GermSpec("JKI", (0, 0), k=2, i=0, params=(("b", Fraction(1)), ("b", Fraction(2))))


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
    # 4b^3 + 27c = 0: the cubic has a repeated factor, as in (x - 2y^2)^2 (x + y^2)
    # at b, c = -3, 4 and (x - y^3)^2 (x + y^3/2) at b, c = -3/2, 1/2
    for k, b, c in ((2, Fraction(-3), Fraction(4)), (3, Fraction(-3, 2), Fraction(1, 2))):
        with pytest.raises(ValueError, match=r"J\(k,0\) requires 4b\^3 \+ 27c != 0"):
            GermSpec("JKI", (0, 0), k=k, i=0, params=(("b", b), ("c", c)))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=0, params=(("a0", Fraction(1)),))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=1, params=(("s", Fraction(2)),))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=1, params=(("a0", Fraction(0)),))
    with pytest.raises(ValueError):
        GermSpec("JKI", (0, 0), k=2, i=1, params=(("zz", Fraction(1)),))
    for i in (None, -1):
        with pytest.raises(ValueError, match="needs i >= 0"):
            GermSpec("JKI", (0, 0), k=2, i=i)
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


def test_list_arguments_build_the_tuple_spec():
    listed = GermSpec("AK", [1, 0], k=2, signs=[1])
    spec = GermSpec("AK", (1, 0), k=2, signs=(1,))
    assert listed == spec and hash(listed) == hash(spec)
    assert listed.render() == spec.render() == "A(2) (+) Q(1,0)"
    assert (listed.sig, listed.signs, listed.params) == ((1, 0), (1,), ())
    assert formula_cell(listed, 2, "plus") == formula_cell(spec, 2, "plus")
    assert zeta_table(listed, 3) == zeta_table(spec, 3)
    jki = GermSpec("JKI", [0, 0], k=2, i=0, params=[("b", 2)])
    assert jki == GermSpec("JKI", (0, 0), k=2, i=0, params=(("b", 2),))
    assert GermSpec("Q", (1, 1), params=[]).params == ()


def _fields(g):
    return (g.family, g.sig, g.k, g.i, g.signs, g.params)


# J specs with moduli: their params hold Fractions and parameter names
_JKI_SPECS = [
    GermSpec("JKI", (0, 0), k=3, i=0, params=(("b", Fraction(1, 2)), ("a1", 3))),
    GermSpec("JKI", (1, 2), k=2, i=1, params=(("s", -1), ("a2", Fraction(-2, 3)))),
    GermSpec("JKI", (0, 1), k=2, i=0),
]
_SPECS = [g for d in range(2, 6) for g in enumerate_simple(d)] + _JKI_SPECS


def test_hash_is_the_hash_of_the_field_tuple():
    # the value a generated dataclass hash gives, so set and dict orders stay
    for g in _SPECS:
        assert hash(g) == hash(_fields(g))


def test_hash_is_computed_once_when_the_spec_is_built():
    g = A(2)
    h = hash(g)
    # a spec is frozen; a field forced past that leaves the kept hash as it was
    object.__setattr__(g, "sig", (2, 0))
    assert hash(g) == h != hash(A(2, sig=(2, 0)))


def test_copies_and_pickles_hash_like_a_fresh_spec():
    for g in _SPECS:
        fresh = GermSpec(*_fields(g))
        # a spec loaded in another process carries a hash made under another
        # PYTHONHASHSEED; a wrong kept hash stands in for it here
        stale = GermSpec(*_fields(g))
        object.__setattr__(stale, "_hash", hash(fresh) + 1)
        for spec in (g, stale):
            for twin in (
                dataclasses.replace(spec),
                copy.copy(spec),
                copy.deepcopy(spec),
                pickle.loads(pickle.dumps(spec)),
            ):
                assert twin == fresh and _fields(twin) == _fields(fresh)
                assert hash(twin) == hash(fresh)
    assert hash(dataclasses.replace(A(2), sig=(2, 0))) == hash(A(2, sig=(2, 0)))


_CHILD = """
import json, pickle, sys
from arczeta.germs import GermSpec, formula_cell

out = []
for g in pickle.loads(sys.stdin.buffer.read()):
    fresh = GermSpec(g.family, g.sig, g.k, g.i, g.signs, g.params)
    kept = formula_cell(fresh, 3, "plus")
    hits = formula_cell.cache_info().hits
    found = formula_cell(g, 3, "plus") is kept and formula_cell.cache_info().hits == hits + 1
    out.append([hash(g) == hash(fresh), found])
print(json.dumps({"probe": hash("arczeta"), "specs": out}))
"""


def test_a_spec_pickled_here_hashes_afresh_in_another_process():
    specs = [A(2), D(5, 1, -1, sig=(2, 1)), GermSpec("E6", (0, 1), signs=(-1,))] + _JKI_SPECS
    blob = pickle.dumps(specs)
    src = str(Path(germs.__file__).resolve().parents[1])
    probes = set()
    for seed in ("1", "2"):  # at least one differs from this process's
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _CHILD], input=blob, env=env, capture_output=True, timeout=120
        )
        assert run.returncode == 0, run.stderr.decode()
        result = json.loads(run.stdout)
        assert result["specs"] == [[True, True]] * len(specs)
        probes.add(result["probe"])
    # the children hashed strings under a seed other than this process's
    assert probes - {hash("arczeta")}


@pytest.mark.parametrize(
    "family, fields, name",
    [
        ("AK", dict(sig=(1, 0), k=2.0, signs=(1,)), "k"),
        ("AK", dict(sig=(1.0, 0), k=2, signs=(1,)), "sig"),
        ("AK", dict(sig=(True, 0), k=2, signs=(1,)), "sig"),
        ("AK", dict(sig=(1, 0), k=2, signs=(1.0,)), "signs"),
        ("AK", dict(sig=(1, 0), k=2, signs=(True,)), "signs"),
        ("JKI", dict(sig=(0, 0), k=2, i=0.0), "i"),
        ("JKI", dict(sig=(0, 0), k=2, i=0, params=(("b", 0.1),)), "params"),
        ("JKI", dict(sig=(0, 0), k=2, i=0, params=(("b", True),)), "params"),
        ("JKI", dict(sig=(0, 0), k=2, i=0, params=(("b", "1/2"),)), "params"),
    ],
    ids=[
        "k-float",
        "sig-float",
        "sig-bool",
        "signs-float",
        "signs-bool",
        "i-float",
        "params-float",
        "params-bool",
        "params-str",
    ],
)
def test_float_and_bool_values_are_refused(family, fields, name):
    # each would compare and hash equal to its int spec, e.g. A(2) (+) Q(1,0),
    # or, as a parameter, slip through Fraction() (0.1 becomes 3602879701896397/2**55)
    with pytest.raises(TypeError, match=rf"^{name} must hold int values"):
        GermSpec(family, **fields)


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
            assert formula_cell(g, 2, ch) == Cell(
                None, "unavailable", f"no closed forms for family {family}"
            )
        else:
            # the order-2 cells see only the quadratic suspension
            assert formula_cell(g, 2, ch) == Cell(arc_order2(g.d, g.sig, TARGETS[ch]), "formula")


# -- cell resolution -----------------------------------------------------------


def test_formula_cell_matches_closed_forms():
    assert formula_cell(A(2), 3, "plus") == Cell(2 * u_pow(7) - u_pow(6), "formula")
    assert formula_cell(GermSpec("E8", (0, 0)), 5, "plus") == Cell(u_pow(8), "formula")


def test_formula_cell_keeps_out_of_coverage(monkeypatch):
    family = FAMILY["AK"]
    calls = []

    def counting(g, n, t):
        calls.append((g, n, t))
        return family.cells(g, n, t)

    monkeypatch.setitem(FAMILY, "AK", dataclasses.replace(family, cells=counting))
    formula_cell.cache_clear()
    kept = [formula_cell(A(2), n, "plus") for n in (3, 3, 4, 4)]  # covered up to n = k+1 = 3
    assert kept[0] == Cell(2 * u_pow(7) - u_pow(6), "formula")
    assert kept[2] == Cell(None, "unavailable", "A_k cell l=4 > k+1=3: use the oracle")
    assert kept[1] is kept[0] and kept[3] is kept[2]  # one shared Cell per key
    assert calls == [(A(2), 3, 1), (A(2), 4, 1)]
    formula_cell.cache_clear()


@pytest.mark.parametrize(
    "source, n", [("formulas", 3), ("formulas", 4), ("auto", 3)],
    ids=["formulas-covered", "formulas-uncovered", "auto-covered"],
)
def test_resolve_cell_serves_the_kept_closed_form(source, n):
    assert resolve_cell(A(2), n, "plus", source) is formula_cell(A(2), n, "plus")


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
    right = formula_cell(g, 3, "plus").value
    wrong = right + u_pow(1)
    real = germs.formula_cell

    def patched(h, n, ch):
        return Cell(wrong, "formula") if (h, n, ch) == (g, 3, "plus") else real(h, n, ch)

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
    assert c == Cell(formula_cell(g, 3, "plus").value, "formula", "cross-check unavailable (depth-exceeded)")


def test_unknown_source_raises_before_any_work(monkeypatch):
    def never(*args):
        raise AssertionError("consulted for an unknown source")

    monkeypatch.setattr(germs, "formula_cell", never)
    for n in (3, 4):  # covered by a formula, and not
        with pytest.raises(ValueError, match="unknown source 'formula'"):
            resolve_cell(A(2), n, "plus", "formula", oracle=never)


@pytest.mark.parametrize("source", SOURCES)
def test_unknown_channel_raises_before_any_work(monkeypatch, source):
    def never(*args):
        raise AssertionError("consulted for an unknown channel")

    monkeypatch.setattr(germs, "formula_cell", never)
    for n in (3, 4):  # covered by a formula, and not
        with pytest.raises(ValueError, match="unknown channel 'plu'"):
            resolve_cell(A(2), n, "plu", source, oracle=never)


@pytest.mark.parametrize(
    "reader",
    [
        formula_cell,
        oracle_cell,
        lambda g, n, channel: zeta_table(g, n, "formulas").cell(n, channel),
        lambda g, n, channel: zeta_table(g, n, "formulas").z_text(channel),
    ],
    ids=["formula", "oracle", "table_cell", "z_text"],
)
def test_cell_readers_reject_an_unknown_channel(reader):
    with pytest.raises(ValueError, match="unknown channel 'plu'"):
        reader(A(2), 3, "plu")


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


@pytest.mark.parametrize("source", ["auto", "formulas"])
def test_out_of_coverage_cell_constructs_no_exception(monkeypatch, source):
    """A cell beyond the closed forms resolves from the kept cell: no
    OutOfCoverage is built, raised or caught, and the note is its text."""
    g = A(2)  # coverage ends at n = k+1 = 3
    resolve_cell(g, 4, "plus", source)  # keeps the closed form's one raising attempt
    built = []
    real_init = OutOfCoverage.__init__

    def counting(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(OutOfCoverage, "__init__", counting)
    c = resolve_cell(g, 4, "plus", source)
    assert built == []
    if source == "formulas":
        assert c == Cell(None, "unavailable", "A_k cell l=4 > k+1=3: use the oracle")
    else:
        assert (c.value, c.provenance) == (2 * u_pow(9) - u_pow(8) - u_pow(7), "oracle")
    formula_cell.cache_clear()  # a cold closed form raises once, and is counted
    assert formula_cell(g, 4, "plus") == Cell(None, "unavailable", "A_k cell l=4 > k+1=3: use the oracle")
    assert len(built) == 1


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
def budget_reads(monkeypatch):
    """The calls of ``effective_budget`` that read the environment, counted."""
    reads = []
    real = germs.effective_budget

    def counting(override=None):
        if override is None:
            reads.append(override)
        return real(override)

    monkeypatch.setattr(germs, "effective_budget", counting)
    return reads


@pytest.mark.parametrize("source, expected", [("auto", 1), ("hybrid", 1), ("formulas", 0)])
def test_a_table_reads_the_budget_once(budget_reads, source, expected):
    ade_table(2, 4, 6, source)
    assert len(budget_reads) == expected


@pytest.mark.parametrize("source", ["auto", "hybrid", "oracle"])
def test_a_zeta_table_and_a_distinction_read_the_budget_once(budget_reads, source):
    zeta_table(A(2), 6, source)
    assert len(budget_reads) == 1
    distinguish(A(2), A(3), 6, source)
    assert len(budget_reads) == 2


def test_a_bad_budget_raises_only_where_the_engine_can_be_reached(monkeypatch):
    g = A(2)  # beyond n = 3 only the engine has its cells
    calls = (
        lambda source: zeta_table(g, 6, source),
        lambda source: ade_table(2, 4, 6, source),
        lambda source: distinguish(g, A(3), 6, source),
    )
    for raw, message in (("x", "must be an integer, got 'x'"), ("0", "must be positive, got 0")):
        monkeypatch.setenv(BUDGET_ENV, raw)
        for call in calls:
            with pytest.raises(ValueError, match=rf"^{BUDGET_ENV} {message}$"):
                call("auto")
            call("formulas")
            # an unknown source is the first error
            with pytest.raises(ValueError, match="unknown source 'formula'"):
                call("formula")


def test_a_table_oracle_keeps_the_budget_it_read(monkeypatch):
    g = D(4, 1, 1, sig=(1, 0))  # its n = 6 plus cell needs 8 strata
    monkeypatch.setenv(BUDGET_ENV, "1")
    oracle = _table_oracle("auto")
    monkeypatch.delenv(BUDGET_ENV)
    assert oracle(g, 6, "plus") is oracle_cell(g, 6, "plus", budget=1)
    assert oracle(g, 6, "plus").failure == "depth-exceeded"
    assert oracle_cell(g, 6, "plus").failure == "unmatched-terminal"


@pytest.fixture
def empty_oracle_cache():
    _oracle_cached.cache_clear()
    yield
    _oracle_cached.cache_clear()


@pytest.fixture
def engine_runs(monkeypatch):
    """The (order, target) of every engine run that ``oracle_cell`` starts."""
    runs = []

    def counting(poly, blocks, n, target, budget=None):
        runs.append((n, target))
        return beta_of(poly, blocks, n, target, budget=budget)

    monkeypatch.setattr(germs, "beta_of", counting)
    return runs


def test_oracle_cell_shares_a_success_across_the_orbit(empty_oracle_cache, engine_runs):
    g = A(3, 1)
    out = oracle_cell(g, 3, "plus")
    assert out.ok
    # t -> -t at odd n, and the dual A(3,-) with plus and minus swapped
    for h, ch in ((g, "minus"), (A(3, -1), "minus"), (A(3, -1), "plus")):
        assert oracle_cell(h, 3, ch) is out
    assert len(engine_runs) == 1
    # at even n plus and minus are different sets: one run each
    assert oracle_cell(g, 2, "plus") is not oracle_cell(g, 2, "minus")
    assert len(engine_runs) == 3
    # x1 -> -x1 takes A(2,+) to A(2,-) in the same channel
    g = A(2, 1, (1, 0))
    out = oracle_cell(g, 4, "plus")
    assert out.ok and oracle_cell(A(2, -1, (1, 0)), 4, "plus") is out
    assert oracle_cell(A(2, -1, (1, 0)), 4, "minus") is oracle_cell(g, 4, "minus")
    assert oracle_cell(g, 4, "minus") is not out
    assert len(engine_runs) == 5
    # over Q(1,1), A(2) is its own negation up to x1 -> -x1: plus is minus
    assert oracle_cell(A(2), 4, "plus") is oracle_cell(A(2), 4, "minus")
    assert len(engine_runs) == 6
    # a D_4 orbit at even n: D(4,+,-), its flip D(4,-,+), and both duals
    out = oracle_cell(D(4, 1, -1), 2, "plus")
    assert out.ok
    for h, ch in ((D(4, -1, 1), "plus"), (D(4, -1, 1), "minus"), (D(4, 1, -1), "minus")):
        assert oracle_cell(h, 2, ch) is out
    assert len(engine_runs) == 7


# Every member of the D(4,+,-) (+) Q(1,1) orbit at n = 3: the germ and its
# flip, each in both channels
_D4_ORBIT = [(D(4, e, -e), ch) for e in (1, -1) for ch in ("plus", "minus")]


def test_a_cached_outcome_carries_its_least_cells_steps(empty_oracle_cache):
    """Every cached outcome keeps its derivation, and an orbit member holds
    the least cell's run, steps included."""
    g = D(4, 1, -1)
    rep, rep_channel = _representative(g, 3, "plus")
    assert (rep, rep_channel) != (g, "plus")
    out = oracle_cell(g, 3, "plus")
    assert out.trace and out.audit()
    assert any(line.lstrip().startswith("[leaf]") for line in out.trace)
    assert out is oracle_cell(rep, 3, rep_channel)
    own = beta_of(*germ_poly(rep), 3, TARGETS[rep_channel])
    assert (out.steps, out.trace) == (own.steps, own.trace)


def test_a_cleared_oracle_cache_serves_no_member_from_before(monkeypatch, empty_oracle_cache):
    """Clearing ``_oracle_cached`` alone forgets every member's outcome."""
    for detail in ("first engine", "second engine"):
        outcome = EngineOutcome(None, "unmatched-terminal", detail, 1, [])
        monkeypatch.setattr(germs, "beta_of", lambda *args, budget=None, out=outcome: out)
        for g, ch in _D4_ORBIT:
            assert oracle_cell(g, 3, ch).detail.endswith(f": {detail}"), (g.render(), ch)
        _oracle_cached.cache_clear()


def test_a_warm_oracle_lookup_computes_no_orbit(monkeypatch, empty_oracle_cache):
    outcomes = [oracle_cell(g, 3, ch) for g, ch in _D4_ORBIT]
    assert all(out is outcomes[0] for out in outcomes)
    probes = []
    probe = germs._representative
    monkeypatch.setattr(germs, "_representative", lambda *cell: probes.append(cell) or probe(*cell))
    for (g, ch), out in zip(_D4_ORBIT, outcomes):
        assert oracle_cell(g, 3, ch) is out
    assert probes == []


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


def test_representative_is_the_least_cell_of_the_orbit_built_directly():
    """The kept relatives give the orbit that _dual and _flip give afresh."""
    swap = {"plus": "minus", "minus": "plus", "naive": "naive"}

    def least(g, n, ch):
        cells = [(g, ch), (_dual(g), swap[ch])]
        cells += [(_flip(h), c) for h, c in cells]
        if n % 2 and ch != "naive":
            cells += [(h, swap[c]) for h, c in cells]
        return min(cells, key=lambda cell: (cell[0].sig, cell[0].signs, cell[0].params,
                                            CHANNELS.index(cell[1])))

    for d in range(2, 6):
        for g in enumerate_simple(d):
            for h in (g, _dual(g)):
                assert _relatives(h) is _relatives(h)
                for n in range(2, 10):
                    for ch in CHANNELS:
                        assert _representative(h, n, ch) == least(h, n, ch), (h.render(), n, ch)


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


# The (germ, n) pairs on which the identity below fails today: the D_k with k
# even and e1*e2 = -1 again, the cells of ROADMAP item 1.  With its value
# u - 2 for beta_D_curve(k even, -1) in place of 2u, the set is empty.
ODD_NAIVE_FAILURES = {
    ("D(4,+,-) (+) Q(0,0)", 3),
    ("D(4,+,-) (+) Q(0,0)", 9),
    ("D(4,+,-) (+) Q(0,1)", 3),
    ("D(4,+,-) (+) Q(0,2)", 3),
    ("D(4,+,-) (+) Q(0,3)", 3),
    ("D(4,+,-) (+) Q(1,0)", 3),
    ("D(4,+,-) (+) Q(1,1)", 3),
    ("D(4,+,-) (+) Q(1,2)", 3),
    ("D(4,+,-) (+) Q(2,0)", 3),
    ("D(4,+,-) (+) Q(2,1)", 3),
    ("D(4,+,-) (+) Q(3,0)", 3),
    ("D(4,-,+) (+) Q(0,0)", 3),
    ("D(4,-,+) (+) Q(0,0)", 9),
    ("D(4,-,+) (+) Q(0,1)", 3),
    ("D(4,-,+) (+) Q(0,2)", 3),
    ("D(4,-,+) (+) Q(0,3)", 3),
    ("D(4,-,+) (+) Q(1,0)", 3),
    ("D(4,-,+) (+) Q(1,1)", 3),
    ("D(4,-,+) (+) Q(1,2)", 3),
    ("D(4,-,+) (+) Q(2,0)", 3),
    ("D(4,-,+) (+) Q(2,1)", 3),
    ("D(4,-,+) (+) Q(3,0)", 3),
    ("D(6,+,-) (+) Q(0,0)", 5),
    ("D(6,+,-) (+) Q(0,1)", 5),
    ("D(6,+,-) (+) Q(0,2)", 5),
    ("D(6,+,-) (+) Q(0,3)", 5),
    ("D(6,+,-) (+) Q(1,0)", 5),
    ("D(6,+,-) (+) Q(1,1)", 5),
    ("D(6,+,-) (+) Q(1,2)", 5),
    ("D(6,+,-) (+) Q(2,0)", 5),
    ("D(6,+,-) (+) Q(2,1)", 5),
    ("D(6,+,-) (+) Q(3,0)", 5),
    ("D(6,-,+) (+) Q(0,0)", 5),
    ("D(6,-,+) (+) Q(0,1)", 5),
    ("D(6,-,+) (+) Q(0,2)", 5),
    ("D(6,-,+) (+) Q(0,3)", 5),
    ("D(6,-,+) (+) Q(1,0)", 5),
    ("D(6,-,+) (+) Q(1,1)", 5),
    ("D(6,-,+) (+) Q(1,2)", 5),
    ("D(6,-,+) (+) Q(2,0)", 5),
    ("D(6,-,+) (+) Q(2,1)", 5),
    ("D(6,-,+) (+) Q(3,0)", 5),
    ("D(8,+,-) (+) Q(0,0)", 7),
    ("D(8,+,-) (+) Q(0,1)", 7),
    ("D(8,+,-) (+) Q(0,2)", 7),
    ("D(8,+,-) (+) Q(0,3)", 7),
    ("D(8,+,-) (+) Q(1,0)", 7),
    ("D(8,+,-) (+) Q(1,1)", 7),
    ("D(8,+,-) (+) Q(1,2)", 7),
    ("D(8,+,-) (+) Q(2,0)", 7),
    ("D(8,+,-) (+) Q(2,1)", 7),
    ("D(8,+,-) (+) Q(3,0)", 7),
    ("D(8,-,+) (+) Q(0,0)", 7),
    ("D(8,-,+) (+) Q(0,1)", 7),
    ("D(8,-,+) (+) Q(0,2)", 7),
    ("D(8,-,+) (+) Q(0,3)", 7),
    ("D(8,-,+) (+) Q(1,0)", 7),
    ("D(8,-,+) (+) Q(1,1)", 7),
    ("D(8,-,+) (+) Q(1,2)", 7),
    ("D(8,-,+) (+) Q(2,0)", 7),
    ("D(8,-,+) (+) Q(2,1)", 7),
    ("D(8,-,+) (+) Q(3,0)", 7),
}


def test_odd_order_naive_is_punctured_line_times_plus():
    """At odd n, (gamma, lambda) -> gamma(lambda*t) is a Nash isomorphism
    A_n^{+1} x R* -> A_n, since lambda -> lambda^n is a Nash automorphism of
    R*; beta is invariant under Nash isomorphisms, so naive = (u - 1)*plus
    holds in Z[u], not only at u = -1.  Checked on engine cells only."""
    checked = 0
    failures = set()
    for d in (2, 3, 4, 5):
        for g in enumerate_simple(d):
            for n in (3, 5, 7, 9):
                plus, naive = (oracle_cell(g, n, ch).value for ch in ("plus", "naive"))
                if plus is None or naive is None:
                    continue
                checked += 1
                if naive != U_MINUS_1 * plus:
                    failures.add((g.render(), n))
    assert checked == 1626
    assert failures == ODD_NAIVE_FAILURES
