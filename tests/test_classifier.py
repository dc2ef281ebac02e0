"""Classification scans: distinguishers, the A-D-E table, nonsimple reports,
and the verification suite."""

import copy
import dataclasses
import hashlib
import json
import pickle
import tracemalloc
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from arczeta import classifier, verify
from arczeta.classifier import (
    Distinguisher,
    ade_table,
    distinguish,
    enumerate_simple,
    nonsimple_report,
    oracle_recheck,
)
from arczeta.cli import main
from arczeta.engine import beta_of
from arczeta.formulas import VARIANTS, arc_G
from arczeta.germs import (
    CHANNELS,
    TARGETS,
    Cell,
    GermSpec,
    analytic_equiv,
    canonicalize,
    germ_poly,
    oracle_cell,
    resolve_cell,
    zeta_table,
)
from arczeta.upoly import UPoly, u_pow
from arczeta.verify import SuiteReport, verify_paper_suite


def A(k, sign, sig):
    return GermSpec("AK", sig, k=k, signs=(sign,))


def D(k, e1, e2, sig):
    return GermSpec("DK", sig, k=k, signs=(e1, e2))


# -- distinguish ---------------------------------------------------------------


def certificate_for(rep, germ1: str, germ2: str):
    """The table entry of the pair {germ1, germ2}, or None."""
    for e in rep.entries:
        if {e.germ1, e.germ2} == {germ1, germ2}:
            return e
    return None


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


# Pairs of equal but distinct values; a constant and zero hash as ints.
_TWINS = [
    (UPoly({1: 1}), UPoly({1: 1})),
    (UPoly({0: -1, 2: 1}), UPoly({0: -1, 2: 1})),
    (UPoly({0: 2}), UPoly({0: 2})),
    (UPoly(), UPoly()),
]
_TWIN = {id(a): b for pair in _TWINS for a, b in (pair, pair[::-1])}
_POOL = [v for pair in _TWINS for v in pair] + [None]


def _reference_scan(values1, values2, N):
    """The first differing cell over the raw values, compared with ``==``."""
    unavailable = []
    for pos, (v1, v2) in enumerate(zip(values1, values2)):
        n, channel = pos // len(CHANNELS) + 2, CHANNELS[pos % len(CHANNELS)]
        if v1 is None or v2 is None:
            unavailable.append(f"n={n}/{channel}")
        elif v1 != v2:
            return n, channel, v1, v2, tuple(unavailable)
    return None, None, None, None, tuple(unavailable)


def _twin_row(data, values1):
    """A row drawn from the pool; "twin" picks an equal, distinct object of
    values1's cell at that position, so scans against values1 run deep."""
    picks = data.draw(
        st.lists(
            st.one_of(st.just("twin"), st.sampled_from(_POOL)),
            min_size=len(values1),
            max_size=len(values1),
        )
    )
    return [_TWIN.get(id(v1)) if isinstance(p, str) else p for v1, p in zip(values1, picks)]


@given(st.data())
def test_scan_matches_a_reference_scan_over_raw_values(data):
    """Interned ids compare as the values do, equal-but-distinct objects
    included, and an unavailable cell on either side is recorded, not compared."""
    N = data.draw(st.integers(2, 5))
    size = (N - 1) * len(CHANNELS)
    values1 = data.draw(st.lists(st.sampled_from(_POOL), min_size=size, max_size=size))
    values2 = _twin_row(data, values1)
    g1, g2 = A(2, 1, (0, 0)), A(3, 1, (0, 0))
    table = {g1: values1, g2: values2}
    calls = {g1: [], g2: []}

    def cell(g, n, channel, source, oracle=None):
        pos = (n - 2) * len(CHANNELS) + CHANNELS.index(channel)
        calls[g].append(pos)
        return Cell(table[g][pos], "oracle")

    with mock.patch.object(classifier, "resolve_cell", cell):
        dist = distinguish(g1, g2, N, "auto")
    n, channel, v1, v2, unavailable = _reference_scan(values1, values2, N)
    assert (dist.germ1, dist.germ2, dist.N, dist.source) == (g1.render(), g2.render(), N, "auto")
    assert (dist.n, dist.channel, dist.unavailable) == (n, channel, unavailable)
    assert dist.value1 is v1 and dist.value2 is v2
    # each row resolves its cells in scan order, up to where the scan stopped
    reached = size if n is None else (n - 2) * len(CHANNELS) + CHANNELS.index(channel) + 1
    assert calls == {g1: list(range(reached)), g2: list(range(reached))}


@given(st.data())
def test_one_scan_call_per_row_matches_the_pair_scans(data):
    """One row scanned against 1-4 partner rows gives, per partner, the
    reference scan of that pair, and resolves each row's cells once each, in
    scan order, up to the furthest position any of its scans reached."""
    N = data.draw(st.integers(2, 5))
    size = (N - 1) * len(CHANNELS)
    values1 = data.draw(st.lists(st.sampled_from(_POOL), min_size=size, max_size=size))
    partner_values = [_twin_row(data, values1) for _ in range(data.draw(st.integers(1, 4)))]
    g1, *gs = [A(k, 1, (0, 0)) for k in range(2, 3 + len(partner_values))]
    table = {g1: values1, **dict(zip(gs, partner_values))}
    calls = {g: [] for g in table}

    def cell(g, n, channel, source, oracle=None):
        pos = (n - 2) * len(CHANNELS) + CHANNELS.index(channel)
        calls[g].append(pos)
        return Cell(table[g][pos], "oracle")

    interned = {}
    row1 = classifier._Row(g1, "auto", interned)
    partners = [(g.render(), classifier._Row(g, "auto", interned)) for g in gs]
    with mock.patch.object(classifier, "resolve_cell", cell):
        dists = classifier._scan(g1.render(), row1, partners, N, "auto")
    assert len(dists) == len(gs)
    reached = {g1: 0}
    for g, values2, dist in zip(gs, partner_values, dists):
        n, channel, v1, v2, unavailable = _reference_scan(values1, values2, N)
        assert (dist.germ1, dist.germ2, dist.N, dist.source) == (g1.render(), g.render(), N, "auto")
        assert (dist.n, dist.channel, dist.unavailable) == (n, channel, unavailable)
        assert dist.value1 is v1 and dist.value2 is v2
        reached[g] = size if n is None else (n - 2) * len(CHANNELS) + CHANNELS.index(channel) + 1
        reached[g1] = max(reached[g1], reached[g])
    assert calls == {g: list(range(k)) for g, k in reached.items()}


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


def test_enumerate_simple_shares_its_specs_not_its_list():
    """Every call hands out the same spec objects, so the cell caches match
    them by identity, in a list of its own."""
    first, second = enumerate_simple(3), enumerate_simple(3, kmax=8)
    assert first is not second
    assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
    kept = list(second)
    first.reverse()
    second.clear()
    third = enumerate_simple(3)
    assert len(third) == len(kept) and all(a is b for a, b in zip(third, kept))


def test_results_survive_pickle_and_deepcopy():
    """A zeta table, a classification report and an engine outcome come back
    equal, and their polynomials hash as before."""
    table = zeta_table(A(2, 1, (1, 1)), 5)
    report = ade_table(2, 3, 3)
    poly, blocks = germ_poly(A(2, 1, (1, 1)))
    outcome = beta_of(poly, blocks, 4, 1)

    def cert_values(rep):
        return [
            v
            for e in rep.entries
            if e.certificate is not None and e.certificate.separated
            for v in (e.certificate.value1, e.certificate.value2)
        ]

    assert cert_values(report)
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        t, r, o = copy_of(table), copy_of(report), copy_of(outcome)
        assert (t, r, o) == (table, report, outcome)
        assert [hash(c) for _, cells in t.rows for c in cells.values()] == [
            hash(c) for _, cells in table.rows for c in cells.values()
        ]
        assert list(map(hash, cert_values(r))) == list(map(hash, cert_values(report)))
        assert list(map(hash, o.leaves)) == list(map(hash, outcome.leaves))
        assert o.trace == outcome.trace and o.trace


def test_ade_table_d2():
    rep = ade_table(2, kmax=8, N=9)
    assert rep.ok
    assert rep.failures == ()
    assert len(rep.specs) == 52
    assert len(rep.classes) == 34
    assert len(rep.entries) == 52 * 51 // 2
    # equivalent pairs agree on every available cell
    e = certificate_for(rep, "A(2) (+) Q(1,0)", "A(2,-) (+) Q(1,0)")
    assert e is not None and e.relation == "equivalent"
    assert e.agreed_cells > 0
    # order-4 D4 class cell separates it from each cube-jet E class
    e = certificate_for(rep, "D(4,+,+) (+) Q(0,0)", "E7 (+) Q(0,0)")
    assert e.relation == "distinct"
    assert (e.certificate.n, e.certificate.channel) == (4, "plus")
    e = certificate_for(rep, "D(4,+,+) (+) Q(0,0)", "E8 (+) Q(0,0)")
    assert (e.certificate.n, e.certificate.channel) == (4, "plus")
    assert certificate_for(rep, "E7 (+) Q(0,0)", "no such germ") is None


def test_ade_table_d3():
    rep = ade_table(3, kmax=8, N=9)
    assert rep.ok
    assert len(rep.specs) == 90
    assert len(rep.classes) == 58
    # corank separates A from D/E immediately
    e = certificate_for(rep, "A(2) (+) Q(2,0)", "E7 (+) Q(1,0)")
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
    broken = None

    def rewrite(spec, n, channel, cell):
        if (spec.render(), n, channel) == (g, *broken):
            return dataclasses.replace(cell, value=cell.value + bump)
        return cell

    _patch_cells(monkeypatch, rewrite)
    # the scan stops at the first disagreement: the cells before it, in scan
    # order (n from 2 up, channels plus, minus, naive), agreed
    for N, n, channel, agreed in [
        (5, 3, "minus", 4),
        (5, 2, "plus", 0),
        (5, 5, "naive", 11),
        (6, 4, "naive", 8),
        (6, 6, "plus", 12),
    ]:
        broken = (n, channel)
        rep = ade_table(2, kmax=4, N=N)
        v = resolve_cell(D(4, 1, 1, (0, 0)), n, channel, "auto").value
        assert not rep.ok
        assert rep.failures == (
            f"equivalent pair D(4,+,+) (+) Q(0,0) ~ {g} disagrees at n={n}/{channel}: "
            f"{v} vs {v + bump}",
        )
        e = certificate_for(rep, "D(4,+,+) (+) Q(0,0)", g)
        assert (e.relation, e.certificate, e.agreed_cells) == ("equivalent", None, agreed)


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
    e = certificate_for(rep, "E7 (+) Q(0,0)", "E8 (+) Q(0,0)")
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
    # a germ outside ``specs``, named by a string that JSON must escape
    stray = 'X "é"\n\\'
    first, second = rep.entries[0], next(e for e in rep.entries if e.certificate is not None)
    _assert_canonical_json(
        dataclasses.replace(
            rep,
            entries=(
                dataclasses.replace(first, germ1=stray),
                dataclasses.replace(
                    second,
                    germ2=stray,
                    certificate=dataclasses.replace(second.certificate, germ2=stray),
                ),
            ),
        )
    )
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
    e = certificate_for(rep, "E7 (+) Q(0,0)", "E8 (+) Q(0,0)")
    assert e.relation == "distinct" and not e.certificate.separated
    assert e.unavailable == ("n=3/naive",) and not rep.ok
    assert any(
        x.certificate is not None and x.certificate.separated and x.unavailable
        for x in rep.entries
    )
    _assert_canonical_json(rep)


def test_table_json_bodies_are_keyed_on_every_field():
    """Pairs that differ in one field each, names aside, share no body text."""
    rep = ade_table(2, kmax=4, N=6)
    sep = next(e for e in rep.entries if e.certificate is not None and e.certificate.separated)
    eq = next(e for e in rep.entries if e.relation == "equivalent")
    c, v = sep.certificate, sep.certificate.value1
    channel = next(ch for ch in CHANNELS if ch != c.channel)

    def cert(**fields):
        return dataclasses.replace(sep, certificate=dataclasses.replace(c, **fields))

    stray = 'X "é"\n\\'
    entries = (
        sep,
        cert(N=c.N + 1),
        cert(n=c.n + 1),
        cert(channel=channel),
        cert(value1=v + u_pow(40)),
        cert(value2=v + u_pow(41)),
        cert(source="oracle"),
        cert(unavailable=("n=2/plus",)),
        dataclasses.replace(sep, unavailable=("n=2/plus",)),
        dataclasses.replace(sep, relation="equivalent"),
        cert(n=None, channel=None, value1=None, value2=None),
        cert(germ1=sep.germ2, germ2=sep.germ1),
        dataclasses.replace(sep, germ2=stray),
        eq,
        dataclasses.replace(eq, agreed_cells=eq.agreed_cells + 1),
        dataclasses.replace(eq, relation="distinct"),
        dataclasses.replace(eq, unavailable=("n=2/plus",)),
    )
    _assert_canonical_json(dataclasses.replace(rep, entries=entries))


# sha256 of ``ade_table(d, 8, 9, "auto").to_json()``, the tables ``table_warm``
# renders; ``arczeta table --d 3 --format json`` (and ``--d 4``) print this
# text and a newline, whose digests begin 06ae4de0 and 3b6f95e0.
PINNED_TABLE_JSON = {
    3: "0ebef7baaf000c58c939abcc15a520dd00af6dd06f032449cff38618dab421ab",
    4: "60335d981ba5074a0d62f22dcc9dc8d6bab44c0226bdce76e58ca14b7775b5c7",
}


@pytest.mark.parametrize("d", sorted(PINNED_TABLE_JSON))
def test_table_json_bytes_are_pinned(d):
    text = ade_table(d, 8, 9, "auto").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TABLE_JSON[d]


def test_table_json_peak_memory_is_near_its_text():
    # one list of shared pieces, joined once: no per-pair string and no
    # intermediate copy of the pairs text on the way to the document
    rep = ade_table(3, 8, 9, "auto")
    tracemalloc.start()
    try:
        text = rep.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text)


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
    # the cells resolved are exactly those some pair's scan reached: up to
    # its certificate, or every cell when the pair is unseparated
    order = [(n, channel) for n in range(2, 7) for channel in CHANNELS]
    reached = set()
    for e in rep.entries:
        c = e.certificate
        stop = order.index((c.n, c.channel)) + 1 if c is not None and c.separated else len(order)
        reached |= {(spec[g], n, ch) for g in (e.germ1, e.germ2) for n, ch in order[:stop]}
    assert set(calls) == reached
    distinct = [e for e in rep.entries if e.relation == "distinct"]
    assert distinct
    for e in distinct:
        assert e.certificate == distinguish(spec[e.germ1], spec[e.germ2], 6, "auto")


@pytest.mark.parametrize("d", [2, 3])
def test_ade_table_scans_once_per_spec(monkeypatch, d):
    """A table makes one scan call per spec, against the later specs, not one per pair."""
    scan, scans = classifier._scan, []

    def counting(germ1, row1, partners, N, source):
        scans.append(len(partners))
        return scan(germ1, row1, partners, N, source)

    monkeypatch.setattr(classifier, "_scan", counting)
    specs = enumerate_simple(d)
    rep = ade_table(d)
    assert scans == list(range(len(specs) - 1, -1, -1))
    assert len(rep.entries) == sum(scans)
    # the last spec's call has no partners, yet it rejects N < 2 before any cell
    monkeypatch.setattr(classifier, "resolve_cell", None)
    row = classifier._Row(specs[-1], "auto", {})
    with pytest.raises(ValueError, match="N must be >= 2, got 1"):
        scan(specs[-1].render(), row, [], 1, "auto")
    assert row.values == []


def test_pair_records_are_slotted():
    # one record per pair of a table: slotted, written once, no per-instance dict
    rep = ade_table(2, kmax=4, N=5)
    certificates = [e.certificate for e in rep.entries if e.certificate is not None]
    assert rep.entries and certificates
    dist = distinguish(A(2, 1, (1, 1)), A(3, 1, (1, 1)), N=6)
    for record in [*rep.entries, *certificates, dist]:
        assert not hasattr(record, "__dict__")
    assert [f.name for f in dataclasses.fields(Distinguisher)] == [
        "germ1", "germ2", "N", "source", "n", "channel", "value1", "value2", "unavailable",
    ]
    assert [f.name for f in dataclasses.fields(classifier.PairEntry)] == [
        "germ1", "germ2", "relation", "certificate", "unavailable", "agreed_cells",
    ]
    copy = dataclasses.replace(certificates[0])
    assert copy == certificates[0] and copy is not certificates[0]
    assert dataclasses.replace(dist, channel=dist.channel) == dist


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


def test_nonsimple_report_rejects_n_below_two_before_any_engine_cell(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an engine cell ran before N was checked")

    monkeypatch.setattr(classifier, "oracle_cell", never)
    with pytest.raises(ValueError, match=r"^N must be >= 2, got 1$"):
        nonsimple_report([GermSpec("JKI", (0, 0), k=2, i=0)], N=1)


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


J20 = GermSpec("JKI", (1, 1), k=2, i=0)


def _bump_the_cube_cell(spec, n, channel, cell):
    if (spec.family, n, channel) == ("CUBE", 4, "plus"):
        return dataclasses.replace(cell, value=cell.value + u_pow(40))
    return cell


def _e8_mirrors_the_instance(spec, n, channel, cell):
    if spec.render() == "E8 (+) Q(1,1)":
        return resolve_cell(J20, n, channel, "auto")
    return cell


@pytest.mark.parametrize("rewrite", [_bump_the_cube_cell, _e8_mirrors_the_instance])
def test_nonsimple_report_names_each_failed_check(monkeypatch, rewrite):
    """A cube cell that the instance does not match, and a simple class the
    instance is not separated from, each fail the report and exit 1."""
    cube = resolve_cell(GermSpec("CUBE", (1, 1)), 4, "plus", "auto").value
    own = oracle_cell(J20, 4, "plus").value
    expected = {
        _bump_the_cube_cell: (
            f"{J20.render()}: cell n=4/plus does not match the cube cell "
            f"({own} vs {cube + u_pow(40)})"
        ),
        _e8_mirrors_the_instance: f"{J20.render()} not separated from E8 (+) Q(1,1) at n <= 5",
    }[rewrite]
    _patch_cells(monkeypatch, rewrite)
    rep = nonsimple_report([J20], N=5, kmax=8)
    assert not rep.ok
    assert rep.failures == (expected,)
    r = CliRunner().invoke(main, ["nonsimple", "J(2,0) (+) Q(1,1)", "--N", "5"])
    assert r.exit_code == 1
    assert r.output.endswith(f"failures: 1\n  {expected}\n")


# -- the verification suite -------------------------------------------------------


def test_suite_sections_and_statuses(suite_report):
    rep = suite_report
    assert [s.name for s in rep.sections] == [
        "quadric-catalog",
        "closed-vs-recursive",
        "oracle-vs-formulas",
        "report-values",
        "cube-jet-classes",
        "variant-adjudication",
        "odd-order-identity",
        "chi-c-identity",
    ]
    status = {s.name: s.status for s in rep.sections}
    assert status["quadric-catalog"] == "ok"
    assert status["closed-vs-recursive"] == "ok"
    assert status["oracle-vs-formulas"] == "ok"
    assert status["report-values"] == "ok"
    assert status["cube-jet-classes"] == "ok"
    assert status["variant-adjudication"] == "flagged"
    assert status["odd-order-identity"] == "ok"
    assert status["chi-c-identity"] == "ok"
    assert rep.ok
    assert rep.flagged == ("variant-adjudication",)


def test_suite_grid_coverage_counts(suite_report):
    rep = suite_report
    assert rep.section("closed-vs-recursive").lines[0] == (
        "550 cells compared, 0 mismatches"
    )
    grid = rep.section("oracle-vs-formulas").lines
    assert "AK: 720 covered cells, 0 mismatches" in grid
    assert "DK: 720 covered cells, 0 mismatches" in grid
    assert "Q: 108 covered cells, 0 mismatches" in grid
    assert "CUBE: 72 covered cells, 0 mismatches" in grid


def test_suite_flags_every_stated_reading(suite_report):
    """All six registered variants' stated readings are flagged, each with its
    proof-derived reading confirmed."""
    lines = suite_report.section("variant-adjudication").lines
    flagged = {
        ln.split(":")[0] for ln in lines if "oracle-inconsistent" in ln
    }
    assert len(VARIANTS) == 6
    assert flagged == {v.id for v in VARIANTS}
    assert "quadra-even-terminal" in flagged
    assert "lem7-A3-first-term" in flagged
    for ln in lines:
        if "oracle-inconsistent" in ln:
            assert "proof-derived confirmed" in ln
        assert "[FAIL]" not in ln


def test_suite_cube_jet_certificates(suite_report):
    rep = suite_report
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


def test_suite_is_deterministic(suite_report):
    assert verify_paper_suite().to_json() == suite_report.to_json()


def test_suite_section_lookup(suite_report):
    rep = suite_report
    assert rep.section("report-values").status == "ok"
    with pytest.raises(KeyError):
        rep.section("no-such-section")
    text = rep.to_text()
    assert text.startswith("paper verification suite")
    assert "result: PASS" in text


def _failing_section(run, name):
    """Run one section alone, check that it is ``name`` and that it and a
    report of it FAIL, and return it."""
    section = run()
    assert section.name == name
    assert section.status == "FAIL"
    assert SuiteReport((section,)).ok is False
    return section


def test_suite_fails_when_closed_form_and_recursion_disagree(monkeypatch):
    real = verify.arc_Q_recursive

    def off_by_one(l, eps, sig):
        return real(l, eps, sig) + (1 if (l, eps, sig) == (4, 1, (1, 1)) else 0)

    monkeypatch.setattr(verify, "arc_Q_recursive", off_by_one)
    section = _failing_section(verify._closed_vs_recursive, "closed-vs-recursive")
    assert section.lines == ("550 cells compared, 1 mismatches", "l=4 eps=1 sig=(1,1)")


def test_suite_fails_when_oracle_and_formula_disagree(monkeypatch):
    g = A(2, 1, (1, 1))
    real = verify.oracle_cell

    def skewed(h, n, channel):
        out = real(h, n, channel)
        if (h, n, channel) == (g, 3, "plus"):
            return dataclasses.replace(out, value=out.value + 1)
        return out

    monkeypatch.setattr(verify, "oracle_cell", skewed)
    lines = _failing_section(verify._oracle_vs_formulas, "oracle-vs-formulas").lines
    right = 2 * u_pow(7) - u_pow(6)
    assert "AK: 720 covered cells, 1 mismatches" in lines
    assert lines[-1] == f"A(2) (+) Q(1,1) n=3/plus: formula {right}, oracle {right + 1}"


def test_suite_fails_on_an_unseparated_cube_jet_pair(monkeypatch):
    real = verify.distinguish

    def blind(g1, g2, N, source):
        if (g1.family, g2.family) == ("E7", "E8"):
            return Distinguisher(g1.render(), g2.render(), N, source)
        return real(g1, g2, N, source)

    monkeypatch.setattr(verify, "distinguish", blind)
    lines = _failing_section(verify._cube_jet_classes, "cube-jet-classes").lines
    assert len(lines) == 6
    assert lines[-1] == "E7 (+) Q(0,0) vs E8 (+) Q(0,0): NOT SEPARATED [FAIL]"


def test_suite_fails_on_an_inconsistent_proof_derived_form(monkeypatch):
    """A served closed form the oracle refutes is a FAIL; a variant whose two
    forms coincide gets the "agree" line."""
    variants = {v.id: v for v in verify.VARIANTS}
    variants["lem4-display-set"] = dataclasses.replace(
        variants["lem4-display-set"], stated=arc_G
    )
    lem5 = variants["lem5-keven-00"]
    real = verify.formula_cell

    def misread(g, n, channel):
        """The lem5 cells served as the stated form reads them."""
        if g.family == "DK" and g.sig == (0, 0) and n == g.k - 1:
            return Cell(lem5.stated(g.k, *g.signs, TARGETS[channel]), "formula")
        return real(g, n, channel)

    monkeypatch.setattr(verify, "VARIANTS", tuple(variants.values()))
    monkeypatch.setattr(verify, "formula_cell", misread)
    lines = _failing_section(verify._variant_adjudication, "variant-adjudication").lines
    assert (
        "lem4-display-set: stated and proof-derived agree with the oracle on all 40 domain cells"
        in lines
    )
    assert (
        "lem5-keven-00: proof-derived form INCONSISTENT at D(4,+,+) (+) Q(0,0) n=3/plus [FAIL]"
        in lines
    )
