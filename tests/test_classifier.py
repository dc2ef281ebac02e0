"""Classification scans: distinguishers, the A-D-E table, nonsimple reports,
and the verification suite."""

import dataclasses
import json

import pytest

from arczeta import classifier
from arczeta.classifier import (
    Distinguisher,
    ade_table,
    audit_scan_minimality,
    distinguish,
    enumerate_simple,
    nonsimple_report,
    oracle_recheck,
    verify_paper_suite,
)
from arczeta.germs import Cell, GermSpec, analytic_equiv, canonicalize, resolve_cell
from arczeta.upoly import u_pow


def A(k, sign, sig):
    return GermSpec("AK", sig, k=k, signs=(sign,))


def D(k, e1, e2, sig):
    return GermSpec("DK", sig, k=k, signs=(e1, e2))


# -- distinguish ---------------------------------------------------------------


def test_distinguish_neighbouring_a_germs():
    dist = distinguish(A(2, 1, (1, 1)), A(3, 1, (1, 1)), N=6)
    assert dist.separated
    assert (dist.n, dist.channel) == (3, "plus")
    assert dist.value1 == 2 * u_pow(7) - u_pow(6)
    assert dist.value2 == 2 * u_pow(7) - 2 * u_pow(6)
    assert dist.verdict == "distinguished at n=3, plus"
    assert dist.unavailable == ()


def test_distinguish_a3_sign_pair():
    dist = distinguish(A(3, 1, (1, 1)), A(3, -1, (1, 1)), N=6)
    assert dist.separated
    assert (dist.n, dist.channel) == (4, "plus")
    assert dist.value1 == 3 * u_pow(9) - u_pow(8)
    assert dist.value2 == 3 * u_pow(9) - 3 * u_pow(8)


def test_distinguish_equivalent_pair_stays_silent():
    g1, g2 = D(4, 1, 1, (0, 0)), D(4, -1, -1, (0, 0))
    dist = distinguish(g1, g2, N=6)
    assert not dist.separated
    assert dist.verdict == "indistinguishable <= 6"
    assert analytic_equiv(g1, g2)


def test_distinguish_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        distinguish(A(2, 1, (1, 1)), A(2, 1, (2, 1)))


def test_distinguish_json_shape():
    dist = distinguish(A(2, 1, (1, 1)), A(3, 1, (1, 1)), N=6)
    data = dist.to_json_dict()
    assert data["verdict"] == "distinguished at n=3, plus"
    assert data["certificate"] == {
        "n": 3,
        "channel": "plus",
        "value1": "2*u^7 - u^6",
        "value2": "2*u^7 - 2*u^6",
    }


def test_scan_minimality_audit():
    g1, g2 = A(3, 1, (1, 1)), A(3, -1, (1, 1))
    dist = distinguish(g1, g2, N=6)
    assert audit_scan_minimality(dist, g1, g2)
    # a doctored certificate pointing past the first difference must fail
    from dataclasses import replace

    late = replace(dist, n=5, channel="plus")
    assert not audit_scan_minimality(late, g1, g2)


def test_scan_minimality_audit_compares_every_field():
    g1, g2 = A(3, 1, (1, 1)), A(3, -1, (1, 1))
    dist = distinguish(g1, g2, N=6)
    assert not audit_scan_minimality(dataclasses.replace(dist, unavailable=("n=2/plus",)), g1, g2)
    assert not audit_scan_minimality(dataclasses.replace(dist, value1=u_pow(1)), g1, g2)
    # an unseparated result certifies nothing, so there is nothing to audit
    assert audit_scan_minimality(distinguish(g1, g1, N=3), g1, g1)


def test_scan_rejects_orders_below_two():
    with pytest.raises(ValueError, match="N must be >= 2, got 1"):
        distinguish(A(2, 1, (1, 1)), A(3, 1, (1, 1)), N=1)
    with pytest.raises(ValueError, match="N must be >= 2, got 1"):
        ade_table(2, kmax=3, N=1)


def test_oracle_recheck_passes_on_real_certificates():
    pairs = []
    for g1, g2 in [
        (A(2, 1, (1, 1)), A(3, 1, (1, 1))),
        (A(3, 1, (1, 1)), A(3, -1, (1, 1))),
        (GermSpec("E7", (0, 0)), GermSpec("E8", (0, 0))),
    ]:
        pairs.append((g1, g2, distinguish(g1, g2, N=6)))
    assert oracle_recheck(pairs) == []


def test_oracle_recheck_reports_tampering():
    g1, g2 = A(2, 1, (1, 1)), A(3, 1, (1, 1))
    dist = distinguish(g1, g2, N=6)
    from dataclasses import replace

    forged = replace(dist, value1=u_pow(3))
    problems = oracle_recheck([(g1, g2, forged)])
    assert len(problems) == 1
    assert "oracle gives" in problems[0]


def test_oracle_recheck_skips_unseparated_and_reports_unavailable(monkeypatch):
    g1, g2 = A(2, 1, (1, 1)), A(3, 1, (1, 1))
    dist = distinguish(g1, g2, N=6)
    silent = distinguish(g1, g1, N=3)
    calls = []

    def no_oracle(g, n, channel, source):
        calls.append((g, n, channel, source))
        return Cell(None, "unavailable", "stub")

    monkeypatch.setattr(classifier, "resolve_cell", no_oracle)
    assert oracle_recheck([(g1, g1, silent)]) == []
    assert calls == []  # an unseparated result has no cell to recheck
    assert oracle_recheck([(g1, g2, dist)]) == [
        f"{dist.germ1} vs {dist.germ2} at n=3/plus: oracle unavailable"
    ]
    assert calls == [(g1, 3, "plus", "oracle"), (g2, 3, "plus", "oracle")]


# -- enumeration and the A-D-E table --------------------------------------------


def test_enumerate_simple_counts():
    specs = enumerate_simple(2, kmax=8)
    assert len(specs) == 52
    assert len({g.render() for g in specs}) == 52
    # both members of sign pairs are present
    assert A(2, 1, (1, 0)) in specs and A(2, -1, (1, 0)) in specs
    assert len({canonicalize(g).render() for g in specs}) == 34
    with pytest.raises(ValueError):
        enumerate_simple(1)


def test_ade_table_d2():
    rep = ade_table(2, kmax=8, N=9)
    assert rep.ok
    assert rep.failures == ()
    assert len(rep.specs) == 52
    assert len(rep.classes) == 34
    assert len(rep.entries) == 52 * 51 // 2
    # equivalent pairs agree on every available cell
    e = rep.certificate_for("A(2) (+) Q(1,0)", "A(2,-) (+) Q(1,0)")
    assert e is not None and e.relation == "equivalent"
    assert e.agreed_cells > 0
    # order-4 D4 class cell separates it from each cube-jet E class
    e = rep.certificate_for("D(4,+,+) (+) Q(0,0)", "E7 (+) Q(0,0)")
    assert e.relation == "distinct"
    assert (e.certificate.n, e.certificate.channel) == (4, "plus")
    e = rep.certificate_for("D(4,+,+) (+) Q(0,0)", "E8 (+) Q(0,0)")
    assert (e.certificate.n, e.certificate.channel) == (4, "plus")
    assert rep.certificate_for("E7 (+) Q(0,0)", "no such germ") is None


def test_ade_table_d3():
    rep = ade_table(3, kmax=8, N=9)
    assert rep.ok
    assert len(rep.specs) == 90
    assert len(rep.classes) == 58
    # corank separates A from D/E immediately
    e = rep.certificate_for("A(2) (+) Q(2,0)", "E7 (+) Q(1,0)")
    assert e.certificate.n == 2


def test_ade_table_text_and_json():
    rep = ade_table(2, kmax=4, N=6)
    assert rep.ok
    text = rep.to_text()
    assert "classes:" in text
    assert "matrix" in text
    data = json.loads(rep.to_json())
    assert data["ok"] is True
    assert data["d"] == 2
    assert len(data["pairs"]) == len(rep.entries)


def _patch_cells(monkeypatch, rewrite):
    """Route ade_table's cell lookups through ``rewrite(g, n, channel, cell)``."""

    def patched(g, n, channel, source, oracle=None):
        return rewrite(g, n, channel, resolve_cell(g, n, channel, source, oracle))

    monkeypatch.setattr(classifier, "resolve_cell", patched)


def test_ade_table_reports_a_broken_equivalent_pair(monkeypatch):
    g = "D(4,-,-) (+) Q(0,0)"
    bump = u_pow(40)

    def rewrite(spec, n, channel, cell):
        if (spec.render(), n, channel) == (g, 3, "minus"):
            return dataclasses.replace(cell, value=cell.value + bump)
        return cell

    _patch_cells(monkeypatch, rewrite)
    rep = ade_table(2, kmax=4, N=5)
    v = resolve_cell(D(4, 1, 1, (0, 0)), 3, "minus", "auto").value
    assert not rep.ok
    assert rep.failures == (
        f"equivalent pair D(4,+,+) (+) Q(0,0) ~ {g} disagrees at n=3/minus: "
        f"{v} vs {v + bump}",
    )
    # the scan stops at the first disagreement: n=2 and n=3/plus agreed
    e = rep.certificate_for("D(4,+,+) (+) Q(0,0)", g)
    assert (e.relation, e.certificate, e.agreed_cells) == ("equivalent", None, 4)


def test_ade_table_reports_an_unseparated_distinct_pair(monkeypatch):
    e7 = GermSpec("E7", (0, 0))

    def rewrite(spec, n, channel, cell):
        if spec.family == "E8":
            return resolve_cell(e7, n, channel, "auto")
        return cell

    _patch_cells(monkeypatch, rewrite)
    rep = ade_table(2, kmax=4, N=5)
    assert not rep.ok
    assert rep.failures == (
        "no distinguisher at n <= 5 for E7 (+) Q(0,0) vs E8 (+) Q(0,0) (unavailable: none)",
    )
    e = rep.certificate_for("E7 (+) Q(0,0)", "E8 (+) Q(0,0)")
    assert e.relation == "distinct" and not e.certificate.separated


def _assert_canonical_json(rep):
    """The table's JSON is ``json.dumps(..., indent=2, sort_keys=True)`` of its fields."""
    text = rep.to_json()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True)
    pairs = []
    for e in rep.entries:
        pair = {
            "germ1": e.germ1,
            "germ2": e.germ2,
            "relation": e.relation,
            "unavailable": list(e.unavailable),
        }
        if e.relation == "equivalent":
            pair["agreed_cells"] = e.agreed_cells
        if e.certificate is not None:
            pair["certificate"] = e.certificate.to_json_dict()
        pairs.append(pair)
    assert data == {
        "d": rep.d,
        "kmax": rep.kmax,
        "N": rep.N,
        "source": rep.source,
        "specs": list(rep.specs),
        "classes": list(rep.classes),
        "pairs": pairs,
        "failures": list(rep.failures),
        "ok": rep.ok,
    }


def test_ade_table_json_is_canonical(monkeypatch):
    rep = ade_table(2, kmax=4, N=6)
    kinds = {(e.relation, e.certificate is not None) for e in rep.entries}
    assert kinds == {("equivalent", False), ("distinct", True)} and rep.ok
    _assert_canonical_json(rep)
    # no entries; strings that JSON must escape
    _assert_canonical_json(
        dataclasses.replace(
            rep, specs=(), classes=(), entries=(), failures=('a "quote", é\n\\', "")
        )
    )

    # E8 answers with E7's cells, and neither has n=3/naive
    e7 = GermSpec("E7", (0, 0))

    def rewrite(spec, n, channel, cell):
        if spec.family in ("E7", "E8") and (n, channel) == (3, "naive"):
            return dataclasses.replace(cell, value=None)
        if spec.family == "E8":
            return resolve_cell(e7, n, channel, "auto")
        return cell

    _patch_cells(monkeypatch, rewrite)
    rep = ade_table(2, kmax=4, N=5)
    e = rep.certificate_for("E7 (+) Q(0,0)", "E8 (+) Q(0,0)")
    assert e.relation == "distinct" and not e.certificate.separated
    assert e.unavailable == ("n=3/naive",) and not rep.ok
    assert any(
        x.certificate is not None and x.certificate.separated and x.unavailable
        for x in rep.entries
    )
    _assert_canonical_json(rep)


def test_ade_table_resolves_each_cell_once_and_scans_as_distinguish(monkeypatch):
    calls: dict[tuple, int] = {}

    def counting(g, n, channel, source, oracle=None):
        calls[g, n, channel] = calls.get((g, n, channel), 0) + 1
        return resolve_cell(g, n, channel, source, oracle)

    monkeypatch.setattr(classifier, "resolve_cell", counting)
    rep = ade_table(2, N=6)
    assert calls and set(calls.values()) == {1}
    monkeypatch.setattr(classifier, "resolve_cell", resolve_cell)
    spec = {g.render(): g for g in enumerate_simple(2)}
    distinct = [e for e in rep.entries if e.relation == "distinct"]
    assert distinct
    for e in distinct:
        assert e.certificate == distinguish(spec[e.germ1], spec[e.germ2], 6, "auto")


# -- nonsimple instances ---------------------------------------------------------


def test_nonsimple_report_j20():
    j = GermSpec("JKI", (1, 1), k=2, i=0)
    rep = nonsimple_report([j], N=5, kmax=8)
    assert rep.ok
    (entry,) = rep.entries
    assert not entry.skipped
    assert len(entry.cube_checks) == 4  # n in {4,5} x {plus,minus}
    assert all(c.matched for c in entry.cube_checks)
    by_cell = {(c.n, c.channel): c for c in entry.cube_checks}
    assert by_cell[(4, "plus")].instance_value == (
        2 * u_pow(13) - u_pow(12) - u_pow(11)
    )
    assert by_cell[(5, "plus")].instance_value == 2 * u_pow(16) - 2 * u_pow(14)

    seps = {s.germ2: s for s in entry.separations}
    assert all(s.separated for s in entry.separations)
    # E8 with the same suspension is only separated at the very last cell
    e8 = seps["E8 (+) Q(1,1)"]
    assert (e8.n, e8.channel) == (5, "plus")
    assert e8.value1 == 2 * u_pow(16) - 2 * u_pow(14)
    assert e8.value2 == 2 * u_pow(16) - u_pow(14)
    # the D4(+,+) order-3 correction cancels, postponing separation to n=4
    assert seps["D(4,+,+) (+) Q(1,1)"].n == 4
    assert seps["D(4,+,-) (+) Q(1,1)"].n == 3
    assert seps["D(5,+,+) (+) Q(1,1)"].n == 3


def test_nonsimple_report_j21():
    j = GermSpec("JKI", (0, 0), k=2, i=1)
    rep = nonsimple_report([j], N=5, kmax=8)
    assert rep.ok
    (entry,) = rep.entries
    seps = {s.germ2: s for s in entry.separations}
    e7 = seps["E7 (+) Q(0,0)"]
    assert (e7.n, e7.channel) == (5, "plus")
    assert e7.value1.is_zero()
    assert e7.value2 == u_pow(8) - u_pow(7)


def test_nonsimple_report_validates_family():
    with pytest.raises(ValueError):
        nonsimple_report([GermSpec("E7", (0, 0))])


def test_nonsimple_report_text_and_json():
    j = GermSpec("JKI", (1, 1), k=2, i=0)
    rep = nonsimple_report([j], N=5, kmax=8)
    text = rep.to_text()
    assert "cube-jet cell n=4/plus" in text
    assert "failures: none" in text
    data = json.loads(rep.to_json())
    assert data["ok"] is True
    assert data["entries"][0]["cube_checks"][0]["matched"] is True


# -- the verification suite -------------------------------------------------------


def test_suite_sections_and_statuses():
    rep = verify_paper_suite()
    assert [s.name for s in rep.sections] == [
        "quadric-catalog",
        "closed-vs-recursive",
        "oracle-vs-formulas",
        "report-values",
        "cube-jet-classes",
        "variant-adjudication",
    ]
    status = {s.name: s.status for s in rep.sections}
    assert status["quadric-catalog"] == "ok"
    assert status["closed-vs-recursive"] == "ok"
    assert status["oracle-vs-formulas"] == "ok"
    assert status["report-values"] == "ok"
    assert status["cube-jet-classes"] == "ok"
    assert status["variant-adjudication"] == "flagged"
    assert rep.ok
    assert rep.flagged == ("variant-adjudication",)


def test_suite_grid_coverage_counts():
    rep = verify_paper_suite()
    assert rep.section("closed-vs-recursive").lines[0] == (
        "550 cells compared, 0 mismatches"
    )
    grid = rep.section("oracle-vs-formulas").lines
    assert "AK: 720 covered cells, 0 mismatches" in grid
    assert "DK: 720 covered cells, 0 mismatches" in grid
    assert "Q: 108 covered cells, 0 mismatches" in grid
    assert "CUBE: 72 covered cells, 0 mismatches" in grid


def test_suite_flags_the_two_published_discrepancies():
    rep = verify_paper_suite()
    lines = rep.section("variant-adjudication").lines
    flagged = {
        ln.split(":")[0] for ln in lines if "oracle-inconsistent" in ln
    }
    assert "quadra-even-terminal" in flagged
    assert "lem7-A3-first-term" in flagged
    for ln in lines:
        if "oracle-inconsistent" in ln:
            assert "proof-derived confirmed" in ln
        assert "[FAIL]" not in ln


def test_suite_cube_jet_certificates():
    rep = verify_paper_suite()
    lines = rep.section("cube-jet-classes").lines
    assert len(lines) == 6
    by_pair = {}
    for ln in lines:
        head, verdict = ln.split(": ", 1)
        by_pair[head] = verdict
    assert (
        by_pair["E6(+) (+) Q(0,0) vs E6(-) (+) Q(0,0)"]
        == "distinguished at n=4, plus"
    )
    assert by_pair["E7 (+) Q(0,0) vs E8 (+) Q(0,0)"] == "distinguished at n=5, plus"


def test_suite_is_deterministic():
    a = verify_paper_suite().to_json()
    b = verify_paper_suite().to_json()
    assert a == b


def test_suite_section_lookup():
    rep = verify_paper_suite()
    assert rep.section("report-values").status == "ok"
    with pytest.raises(KeyError):
        rep.section("no-such-section")
    text = rep.to_text()
    assert text.startswith("paper verification suite")
    assert "result: PASS" in text


def _failing_section(name):
    """Run the suite, check that it and the named section FAIL, and return the section."""
    rep = verify_paper_suite()
    assert rep.ok is False
    section = rep.section(name)
    assert section.status == "FAIL"
    return section


def test_suite_fails_when_closed_form_and_recursion_disagree(monkeypatch):
    real = classifier.arc_Q_recursive

    def off_by_one(l, eps, sig):
        return real(l, eps, sig) + (1 if (l, eps, sig) == (4, 1, (1, 1)) else 0)

    monkeypatch.setattr(classifier, "arc_Q_recursive", off_by_one)
    section = _failing_section("closed-vs-recursive")
    assert section.lines == ("550 cells compared, 1 mismatches", "l=4 eps=1 sig=(1,1)")


def test_suite_fails_when_oracle_and_formula_disagree(monkeypatch):
    g = A(2, 1, (1, 1))
    real = classifier.oracle_cell

    def skewed(h, n, channel):
        out = real(h, n, channel)
        if (h, n, channel) == (g, 3, "plus"):
            return dataclasses.replace(out, value=out.value + 1)
        return out

    monkeypatch.setattr(classifier, "oracle_cell", skewed)
    lines = _failing_section("oracle-vs-formulas").lines
    right = 2 * u_pow(7) - u_pow(6)
    assert "AK: 720 covered cells, 1 mismatches" in lines
    assert lines[-1] == f"A(2) (+) Q(1,1) n=3/plus: formula {right}, oracle {right + 1}"


def test_suite_fails_on_an_unseparated_cube_jet_pair(monkeypatch):
    real = classifier.distinguish

    def blind(g1, g2, N, source):
        if (g1.family, g2.family) == ("E7", "E8"):
            return Distinguisher(g1.render(), g2.render(), N, source)
        return real(g1, g2, N, source)

    monkeypatch.setattr(classifier, "distinguish", blind)
    lines = _failing_section("cube-jet-classes").lines
    assert len(lines) == 6
    assert lines[-1] == "E7 (+) Q(0,0) vs E8 (+) Q(0,0): NOT SEPARATED [FAIL]"


def test_suite_fails_on_an_inconsistent_proof_derived_form(monkeypatch):
    """A proof-derived form the oracle refutes is a FAIL; a variant whose two
    forms coincide gets the "agree" line."""
    real = classifier.formula_variants

    def variants(vid):
        v = real(vid)
        if vid == "lem4-display-set":
            return dataclasses.replace(v, stated=v.proof_derived)
        if vid == "lem5-keven-00":
            return dataclasses.replace(v, proof_derived=v.stated)
        return v

    monkeypatch.setattr(classifier, "formula_variants", variants)
    lines = _failing_section("variant-adjudication").lines
    assert (
        "lem4-display-set: stated and proof-derived agree with the oracle on all 40 domain cells"
        in lines
    )
    assert (
        "lem5-keven-00: proof-derived form INCONSISTENT at D(4,+,+) (+) Q(0,0) n=3/plus [FAIL]"
        in lines
    )
