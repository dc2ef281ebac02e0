"""Acceptance gate: nine primary checks, one verdict line each.

Every polynomial comparison below is exact equality in Z[u] — no tolerances.
Run ``pytest tests/test_acceptance.py -v`` for the per-criterion pass/fail
verdicts; add ``-s`` to also see the summary lines printed by each check.
"""

import random
import time
from fractions import Fraction

from arczeta.classifier import ade_table, nonsimple_report, verify_paper_suite
from arczeta.engine import beta_of
from arczeta.formulas import (
    arc_E,
    arc_G,
    arc_Q,
    arc_Q_recursive,
)
from arczeta.germs import (
    CHANNELS,
    TARGETS,
    GermSpec,
    _dual,
    apply_signed_permutation,
    formula_cell,
    germ_poly,
    oracle_cell,
)
from arczeta.parser import GermParseError, parse_germ
from arczeta.quadric import beta_D_curve, beta_Y, beta_Y_fiber
from arczeta.upoly import UPoly, u_pow

SIGS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]


def test_criterion_1_quadric_catalog_values():
    t0 = time.monotonic()
    assert beta_Y((1, 1)) == UPoly.parse("2*u - 1")
    assert beta_Y((2, 1)) == UPoly.parse("u^2")
    assert beta_Y_fiber((1, 1), 1) == UPoly.parse("u - 1")
    assert beta_Y_fiber((2, 1), 1) == UPoly.parse("u^2 + u")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: quadric catalog values exact ({elapsed:.3f}s)")


def test_criterion_2_closed_form_equals_recursion():
    t0 = time.monotonic()
    cells = 0
    for order in range(2, 13):
        for p in range(5):
            for q in range(5):
                for eps in (1, -1):
                    sig = (p, q)
                    assert arc_Q(order, eps, sig) == arc_Q_recursive(order, eps, sig)
                    cells += 1
    elapsed = time.monotonic() - t0
    assert cells == 550
    assert elapsed < 10.0
    print(
        f"[PASS] criterion 2: closed form == recursion on {cells} cells"
        f" ({elapsed:.2f}s)"
    )


def _grid_germs():
    out = [GermSpec("Q", s) for s in SIGS]
    out += [
        GermSpec("AK", s, k=k, signs=(e,))
        for k in range(2, 7)
        for e in (1, -1)
        for s in SIGS
    ]
    out += [GermSpec("G", s) for s in SIGS]
    out += [
        GermSpec("DK", s, k=k, signs=(e1, e2))
        for k in range(4, 7)
        for e1 in (1, -1)
        for e2 in (1, -1)
        for s in SIGS
    ]
    out += [GermSpec("E6", s, signs=(e,)) for e in (1, -1) for s in SIGS]
    out += [GermSpec(f, s) for f in ("E7", "E8", "CUBE") for s in SIGS]
    return out


def test_criterion_3_oracle_matches_formulas_on_grid():
    t0 = time.monotonic()
    covered = 0
    mismatches = []
    for g in _grid_germs():
        for n in range(2, 8):
            for channel in CHANNELS:
                expected = formula_cell(g, n, channel).value
                if expected is None:
                    continue
                covered += 1
                out = oracle_cell(g, n, channel)
                if not out.ok or out.value != expected:
                    mismatches.append((g.render(), n, channel))
    elapsed = time.monotonic() - t0
    assert covered == 1956
    assert mismatches == []
    assert elapsed < 600.0
    print(
        f"[PASS] criterion 3: oracle == formulas on {covered} covered cells,"
        f" 0 mismatches ({elapsed:.1f}s)"
    )


def test_criterion_4_spot_values():
    t0 = time.monotonic()
    u = UPoly.parse("u")
    # boundary-curve invariants for the three D-type cases
    assert beta_D_curve(5, 1, 1) == 2 * u
    assert beta_D_curve(4, 1, 1) == u
    assert beta_D_curve(4, -1, 1) == 2 * u
    # rank-zero corank-2 ladder at odd orders 3 and 5
    for m in (1, 2):
        assert arc_G(2 * m + 1, 1, (0, 0)) == u_pow(2 * m + 2) * (u_pow(m) - 1)
    # the order-5 cells that split the two exceptional unimodal-free germs
    assert arc_E("E7", 5, 1, (0, 0)) == u_pow(8) - u_pow(7)
    assert arc_E("E8", 5, 1, (0, 0)) == u_pow(8)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"[PASS] criterion 4: published spot values exact ({elapsed:.3f}s)")


def test_criterion_5_variant_adjudication():
    rep = verify_paper_suite()
    assert rep.ok
    sec = rep.section("variant-adjudication")
    assert sec.status == "flagged"
    for fid in ("quadra-even-terminal", "lem7-A3-first-term"):
        line = next(ln for ln in sec.lines if ln.startswith(fid))
        assert "oracle-inconsistent" in line
        assert "proof-derived confirmed" in line
    # adjudication must be reproducible verbatim
    assert rep.to_text() == verify_paper_suite().to_text()
    print(
        "[PASS] criterion 5: stated variants flagged oracle-inconsistent,"
        " derived forms confirmed, output deterministic"
    )


def test_criterion_6_simple_classification_tables():
    t0 = time.monotonic()
    shapes = {}
    for d in (2, 3, 4, 5):
        rep = ade_table(d, kmax=8, N=9)
        assert rep.ok
        assert not rep.failures
        for entry in rep.entries:
            if entry.relation == "distinct":
                assert entry.certificate is not None
                assert entry.certificate.separated
                assert entry.certificate.n <= 9
            else:
                assert entry.relation == "equivalent"
                assert entry.certificate is None
                assert entry.agreed_cells > 0
        shapes[d] = (len(rep.specs), len(rep.classes))
    elapsed = time.monotonic() - t0
    assert shapes == {2: (52, 34), 3: (90, 58), 4: (128, 82), 5: (166, 106)}
    assert elapsed < 600.0
    print(
        f"[PASS] criterion 6: full pairwise tables for d=2..5 certified,"
        f" zero failures ({elapsed:.1f}s)"
    )


def test_criterion_7_nonsimple_instances_separate():
    t0 = time.monotonic()
    instances = [
        GermSpec("JKI", s, k=k, i=i)
        for s in ((0, 0), (1, 1))
        for (k, i) in ((2, 0), (2, 1), (3, 0))
    ]
    rep = nonsimple_report(instances, N=5, kmax=8)
    assert rep.ok
    assert not rep.failures
    assert len(rep.entries) == 6
    for entry in rep.entries:
        assert not entry.skipped
        assert {(c.n, c.channel) for c in entry.cube_checks} == {
            (4, "plus"),
            (4, "minus"),
            (5, "plus"),
            (5, "minus"),
        }
        assert all(c.matched for c in entry.cube_checks)
        assert entry.separations
        for dist in entry.separations:
            assert dist.separated
            assert dist.n <= 5
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(
        f"[PASS] criterion 7: 6 cubic-jet instances match the cube cells and"
        f" separate from every simple corank-2 class ({elapsed:.1f}s)"
    )


def test_criterion_8_signed_permutation_invariance():
    t0 = time.monotonic()
    rng = random.Random(20260815)
    pool = []
    for s in ((0, 0), (1, 0), (1, 1)):
        if s != (0, 0):
            pool.append(GermSpec("Q", s))
        pool.append(GermSpec("G", s))
        pool.append(GermSpec("CUBE", s))
        pool.append(GermSpec("E8", s))
        pool += [
            GermSpec("AK", s, k=k, signs=(e,)) for k in (2, 3, 5) for e in (1, -1)
        ]
        pool += [
            GermSpec("DK", s, k=4, signs=(e1, e2))
            for e1 in (1, -1)
            for e2 in (1, -1)
        ]
        pool += [GermSpec("E6", s, signs=(e,)) for e in (1, -1)]
    cells = 0
    for g in rng.sample(pool, 20):
        poly, blocks = germ_poly(g)
        d = len(blocks)
        perm = rng.sample(range(d), d)
        flips = [rng.choice((1, -1)) for _ in range(d)]
        poly2, blocks2 = apply_signed_permutation(poly, blocks, perm, flips)
        for n in range(2, 6):
            for target in (1, -1, "naive"):
                a = beta_of(poly, blocks, n, target)
                b = beta_of(poly2, blocks2, n, target)
                assert a.ok and b.ok
                assert a.value == b.value
                cells += 1
    elapsed = time.monotonic() - t0
    assert cells == 240
    print(
        f"[PASS] criterion 8: 20 signed-permutation pairs agree on all"
        f" {cells} cells with n<=5 ({elapsed:.1f}s)"
    )


# Every family, unbalanced signatures, and J moduli that the dual negates
# (b, c, s, a0, a1) or keeps (the a_m of J(k,0)).
SYMMETRY_POOL = [
    GermSpec("Q", (2, 1)),
    GermSpec("Q", (0, 3)),
    GermSpec("AK", (1, 0), k=2, signs=(1,)),
    GermSpec("AK", (0, 2), k=3, signs=(-1,)),
    GermSpec("AK", (2, 0), k=4, signs=(1,)),
    GermSpec("AK", (2, 1), k=5, signs=(1,)),
    GermSpec("DK", (1, 0), k=4, signs=(1, -1)),
    GermSpec("DK", (0, 2), k=4, signs=(1, 1)),
    GermSpec("DK", (0, 1), k=5, signs=(-1, -1)),
    GermSpec("DK", (1, 0), k=6, signs=(-1, 1)),
    GermSpec("E6", (1, 0), signs=(1,)),
    GermSpec("E6", (0, 2), signs=(-1,)),
    GermSpec("E7", (0, 1)),
    GermSpec("E8", (2, 0)),
    GermSpec("CUBE", (2, 0)),
    GermSpec("G", (0, 1)),
    GermSpec("JKI", (1, 0), k=2, i=0, params=(("b", Fraction(1, 2)),)),
    GermSpec(
        "JKI", (0, 1), k=3, i=0,
        params=(("b", Fraction(-2)), ("c", Fraction(3)), ("a1", Fraction(1, 3))),
    ),
    GermSpec(
        "JKI", (1, 0), k=2, i=1,
        params=(("s", Fraction(-1)), ("a0", Fraction(1, 2)), ("a1", Fraction(2))),
    ),
]
SWAPPED = {"plus": "minus", "minus": "plus", "naive": "naive"}


def test_sign_symmetries_are_exact_identities():
    """The two symmetries the oracle cache shares cells across, in Z[u].

    t -> -t carries A_n^{+1}(f) onto A_n^{-1}(f) at odd n, and
    A_n^c(f) = A_n^{-c}(-f) with -f = dual(f) up to a signed
    permutation.  Direct engine runs, so no cache vouches for itself.
    """
    t0 = time.monotonic()
    compared = 0
    for g in SYMMETRY_POOL:
        systems = {h: germ_poly(h) for h in (g, _dual(g))}
        for n in range(2, 8):
            out = {
                (h, ch): beta_of(poly, blocks, n, TARGETS[ch])
                for h, (poly, blocks) in systems.items()
                for ch in CHANNELS
            }
            pairs = [((g, ch), (_dual(g), SWAPPED[ch])) for ch in CHANNELS]
            if n % 2:
                pairs += [((h, "plus"), (h, "minus")) for h in systems]
            for a, b in pairs:
                if out[a].ok and out[b].ok:
                    assert out[a].value == out[b].value, (a[0].render(), n, a[1], b)
                    compared += 1
    elapsed = time.monotonic() - t0
    assert compared >= 400
    print(
        f"[PASS] sign symmetries: {len(SYMMETRY_POOL)} germs agree with their"
        f" duals and, at odd n, plus with minus on {compared} cell pairs"
        f" with n<=7 ({elapsed:.1f}s)"
    )


def _random_spec(rng):
    fam = rng.choice(["Q", "AK", "DK", "E6", "E7", "E8", "CUBE", "G", "JKI"])
    sig = (rng.randint(0, 3), rng.randint(0, 3))

    def frac(nonzero=False):
        while True:
            f = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
            if f != 0 or not nonzero:
                return f

    if fam == "AK":
        return GermSpec("AK", sig, k=rng.randint(2, 9), signs=(rng.choice((1, -1)),))
    if fam == "DK":
        return GermSpec(
            "DK",
            sig,
            k=rng.randint(4, 9),
            signs=(rng.choice((1, -1)), rng.choice((1, -1))),
        )
    if fam == "E6":
        return GermSpec("E6", sig, signs=(rng.choice((1, -1)),))
    if fam == "JKI":
        k, i = rng.randint(2, 4), rng.randint(0, 2)
        if i == 0:
            b, c = frac(), frac(nonzero=True)
            if 4 * b**3 + 27 * c == 0:  # a repeated cubic factor: not a J(k,0) germ
                c = -c
            params = [("b", b), ("c", c)]
            if k > 2 and rng.random() < 0.5:
                params.append((f"a{rng.randint(0, k - 1)}", frac(nonzero=True)))
        else:
            params = [("s", Fraction(rng.choice((1, -1)))), ("a0", frac(nonzero=True))]
            if rng.random() < 0.5:
                params.append((f"a{rng.randint(1, k)}", frac(nonzero=True)))
        return GermSpec("JKI", sig, k=k, i=i, params=tuple(params))
    return GermSpec(fam, sig)


def _mutate(rng, text, alphabet):
    op = rng.randrange(6)
    if op == 0 and text:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1 :]
    if op == 1:
        i = rng.randint(0, len(text))
        return text[:i] + rng.choice(alphabet) + text[i:]
    if op == 2 and text:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice(alphabet) + text[i + 1 :]
    if op == 3:
        return text[: rng.randint(0, len(text))]
    if op == 4:
        return text + rng.choice(alphabet)
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))


def test_criterion_9_parser_fuzz():
    t0 = time.monotonic()
    rng = random.Random(97)
    alphabet = "AQDEGJC0123456789(),;+-=/ .ku"
    valid = mutated = 0
    for case in range(10_000):
        text = _random_spec(rng).render()
        if case % 4 == 0:
            # canonical strings must round-trip byte-identically
            assert parse_germ(text).render() == text
            valid += 1
        else:
            try:
                parse_germ(_mutate(rng, text, alphabet))
            except GermParseError:
                pass  # rejection is fine; any other exception is a crash
            mutated += 1
    elapsed = time.monotonic() - t0
    assert valid + mutated == 10_000
    assert elapsed < 60.0
    print(
        f"[PASS] criterion 9: parser fuzz over {valid + mutated} cases"
        f" ({valid} round-trips, {mutated} mutations) with no crash"
        f" ({elapsed:.1f}s)"
    )
