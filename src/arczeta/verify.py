"""The paper verification suite behind ``arczeta verify``.

Each section is one function that adjudicates one claim: the quadric
catalog's spot values, the closed forms against their recursion and the
engine, the frozen report values, the cube-jet separations, the stated
readings of ``formulas.VARIANTS``, and two identities over every simple
germ at d = 2..5.  ``_SECTIONS`` lists them in report order, and
``_section`` sets every section's status.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .classifier import _cell_id, _family_specs, distinguish, enumerate_simple
from .engine import beta_of
from .formulas import (
    GRID_SIGS,
    VARIANTS,
    arc_E,
    arc_G,
    arc_Q,
    arc_Q_recursive,
)
from .germs import (
    CHANNEL_OF,
    CHANNELS,
    FAMILY,
    TARGETS,
    GermSpec,
    _csv,
    _json,
    formula_cell,
    germ_poly,
    oracle_cell,
    resolve_cell,
)
from .quadric import beta_D_curve, beta_Y, beta_Y_fiber
from .upoly import U_MINUS_1, UPoly, u_pow

__all__ = ["SuiteReport", "SuiteSection", "verify_paper_suite"]


@dataclass(frozen=True)
class SuiteSection:
    name: str
    status: str  # "ok" | "flagged" | "FAIL"
    lines: tuple[str, ...]


@dataclass(frozen=True)
class SuiteReport:
    sections: tuple[SuiteSection, ...]

    @property
    def ok(self) -> bool:
        return all(s.status != "FAIL" for s in self.sections)

    @property
    def flagged(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sections if s.status == "flagged")

    def section(self, name: str) -> SuiteSection:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json(self) -> str:
        sections = [dict(name=s.name, status=s.status, lines=list(s.lines)) for s in self.sections]
        return _json(dict(sections=sections, ok=self.ok))

    def to_csv(self) -> str:
        rows = [[s.name, s.status, line] for s in self.sections for line in s.lines]
        return _csv(["section", "status", "line"], rows)

    def to_text(self) -> str:
        lines = ["paper verification suite", "========================"]
        for s in self.sections:
            lines.append(f"[{s.status}] {s.name}")
            lines.extend(f"    {x}" for x in s.lines)
        tail = "PASS" if self.ok else "FAIL"
        lines.append(
            f"result: {tail} (flagged sections record adjudicated discrepancies, "
            "not failures)"
        )
        return "\n".join(lines) + "\n"


def _grid_specs() -> list[GermSpec]:
    """Every spec with closed forms, k <= 6, at each grid signature."""
    return [
        spec
        for sig in GRID_SIGS
        for family, fam in FAMILY.items()
        if fam.cells is not None
        for spec in _family_specs(family, sig, 6)
    ]


def _describe_cell(g: GermSpec, n: int, channel: str) -> str:
    return f"{g.render()} {_cell_id(n, channel)}"


def _section(name: str, lines: list[str], failed: bool, flagged: bool = False) -> SuiteSection:
    """The one status rule: a failure is FAIL, else a flag is flagged, else ok."""
    status = "FAIL" if failed else ("flagged" if flagged else "ok")
    return SuiteSection(name, status, tuple(lines))


def _value_section(name: str, checks: list[tuple[str, UPoly, UPoly]]) -> SuiteSection:
    """One ``label = value [ok|FAIL]`` line per (label, got, want) check."""
    lines = [
        f"{label} = {got} [{'ok' if got == want else 'FAIL'}]" for label, got, want in checks
    ]
    return _section(name, lines, any(got != want for _, got, want in checks))


def _quadric_catalog() -> SuiteSection:
    """Spot values of the quadric catalog."""
    u = u_pow(1)
    spot = [
        ("beta_Y(1,1)", beta_Y((1, 1)), 2 * u - 1),
        ("beta_Y(2,1)", beta_Y((2, 1)), u_pow(2)),
        ("beta_Y_fiber((1,1),+1)", beta_Y_fiber((1, 1), 1), u - 1),
        ("beta_Y_fiber((2,1),+1)", beta_Y_fiber((2, 1), 1), u_pow(2) + u),
    ]
    return _value_section("quadric-catalog", spot)


def _closed_vs_recursive() -> SuiteSection:
    """The closed form against the recursion on the quadric chain."""
    mismatches = []
    count = 0
    for l in range(2, 13):
        for p in range(5):
            for q in range(5):
                for eps in (1, -1):
                    count += 1
                    if arc_Q(l, eps, (p, q)) != arc_Q_recursive(l, eps, (p, q)):
                        mismatches.append(f"l={l} eps={eps} sig=({p},{q})")
    return _section(
        "closed-vs-recursive",
        [f"{count} cells compared, {len(mismatches)} mismatches"] + mismatches,
        bool(mismatches),
    )


def _oracle_vs_formulas() -> SuiteSection:
    """The oracle against every covered closed-form cell of the acceptance grid."""
    per_family: dict[str, list[int]] = {}
    grid_mismatches: list[str] = []
    for g in _grid_specs():
        bucket = per_family.setdefault(g.family, [0, 0])
        for n in range(2, 8):
            for channel in CHANNELS:
                f = formula_cell(g, n, channel).value
                if f is None:
                    continue
                out = oracle_cell(g, n, channel)
                bucket[0] += 1
                if not out.ok or out.value != f:
                    bucket[1] += 1
                    grid_mismatches.append(
                        f"{_describe_cell(g, n, channel)}: formula {f}, "
                        f"oracle {out.value if out.ok else out.failure}"
                    )
    lines = [
        f"{fam}: {n_cells} covered cells, {n_bad} mismatches"
        for fam, (n_cells, n_bad) in sorted(per_family.items())
    ]
    return _section("oracle-vs-formulas", lines + grid_mismatches, bool(grid_mismatches))


def _report_values() -> SuiteSection:
    """Frozen values of the report's curve fibers and low-order cells."""
    u = u_pow(1)
    frozen = [
        ("curve fiber, odd k, aligned signs", beta_D_curve(5, 1, 1), 2 * u),
        ("curve fiber, even k, positive", beta_D_curve(4, 1, 1), u),
        ("curve fiber, even k, negative", beta_D_curve(4, -1, 1), u - 2),
        ("suspension-free order 3", arc_G(3, 1, (0, 0)), u_pow(4) * (u - 1)),
        ("suspension-free order 5", arc_G(5, 1, (0, 0)), u_pow(6) * (u_pow(2) - 1)),
        ("E7 order-5 cell at (0,0)", arc_E("E7", 5, 1, (0, 0)), (u - 1) * u_pow(7)),
        ("E8 order-5 cell at (0,0)", arc_E("E8", 5, 1, (0, 0)), u_pow(8)),
    ]
    return _value_section("report-values", frozen)


def _cube_jet_classes() -> SuiteSection:
    """Pairwise separation of the cube-jet classes (corank-2 normal forms)."""
    e_germs = [
        GermSpec("E6", (0, 0), signs=(1,)),
        GermSpec("E6", (0, 0), signs=(-1,)),
        GermSpec("E7", (0, 0)),
        GermSpec("E8", (0, 0)),
    ]
    lines = []
    bad = 0
    for g1, g2 in combinations(e_germs, 2):
        dist = distinguish(g1, g2, 9, "auto")
        if dist.separated:
            lines.append(f"{dist.germ1} vs {dist.germ2}: {dist.verdict}")
        else:
            bad += 1
            lines.append(f"{dist.germ1} vs {dist.germ2}: NOT SEPARATED [FAIL]")
    return _section("cube-jet-classes", lines, bool(bad))


def _variant_adjudication() -> SuiteSection:
    """Each variant's stated form and the closed form its cells serve (the
    proof-derived reading) against the engine."""
    lines = []
    any_fail = False
    any_flag = False
    for v in VARIANTS:
        stated_bad: list[str] = []
        derived_bad: list[str] = []
        for args in v.domain:
            fields, n, target = v.cell(*args)
            germ, channel = GermSpec(**fields), CHANNEL_OF[target]
            out = oracle_cell(germ, n, channel)
            if not out.ok:
                derived_bad.append(f"{_describe_cell(germ, n, channel)}: oracle {out.failure}")
                continue
            if formula_cell(germ, n, channel).value != out.value:
                derived_bad.append(_describe_cell(germ, n, channel))
            if v.stated(*args) != out.value:
                stated_bad.append(_describe_cell(germ, n, channel))
        if derived_bad:
            any_fail = True
            lines.append(
                f"{v.id}: proof-derived form INCONSISTENT at {derived_bad[0]} [FAIL]"
            )
            continue
        if stated_bad:
            any_flag = True
            lines.append(
                f"{v.id}: stated form oracle-inconsistent on "
                f"{len(stated_bad)}/{len(v.domain)} domain cells "
                f"(first: {stated_bad[0]}); proof-derived confirmed on all "
                f"{len(v.domain)}"
            )
        else:
            lines.append(
                f"{v.id}: stated and proof-derived agree with the oracle on all "
                f"{len(v.domain)} domain cells"
            )
    return _section("variant-adjudication", lines, any_fail, any_flag)


#: The germs of the two identity sections: every simple germ at d = 2..5.
_IDENTITY_DIMS = (2, 3, 4, 5)


def _identity_section(name: str, compared: str, failures: list[str]) -> SuiteSection:
    return _section(
        name, [f"{compared}, {len(failures)} failures"] + failures, bool(failures)
    )


def _odd_order_identity() -> SuiteSection:
    """naive = (u - 1)*plus in Z[u] at odd n, from two direct engine runs.

    At odd n, (gamma, lambda) -> gamma(lambda*t) is a Nash isomorphism
    A_n^{+1} x R* -> A_n, so beta(A_n) = (u - 1)*beta(A_n^{+1}).  Both
    cells run the engine on their own system: the oracle cache derives
    odd-order naive cells from this identity, so it could not witness it.
    """
    failures = []
    count = 0
    for d in _IDENTITY_DIMS:
        for g in enumerate_simple(d):
            poly, blocks = germ_poly(g)
            for n in (3, 5, 7, 9):
                plus, naive = (beta_of(poly, blocks, n, TARGETS[ch]) for ch in ("plus", "naive"))
                if not (plus.ok and naive.ok):
                    continue
                count += 1
                if naive.value != U_MINUS_1 * plus.value:
                    failures.append(
                        f"{g.render()} n={n}: naive {naive.value}, "
                        f"(u - 1)*plus {U_MINUS_1 * plus.value} [FAIL]"
                    )
    return _identity_section(
        "odd-order-identity", f"{count} (germ, n) pairs compared", failures
    )


def _chi_c_identity() -> SuiteSection:
    """The three cells of each (germ, n) at u = -1, where beta is chi_c.

    t -> lambda*t makes A_n the product A_n^{+1} x R* at odd n and
    (A_n^{+1} + A_n^{-1}) x R_{>0} at even n, so chi_c gives plus = minus
    and naive = -2*plus at odd n, and naive = -(plus + minus) at even n.
    The cells are those the tables serve (``auto``); an engine naive cell
    at odd n is derived from plus, so ``odd-order-identity`` witnesses it.
    """
    failures = []
    count = 0
    for d in _IDENTITY_DIMS:
        for g in enumerate_simple(d):
            for n in range(2, 10):
                values = [resolve_cell(g, n, ch, "auto").value for ch in CHANNELS]
                if None in values:
                    continue
                count += 1
                plus, minus, naive = (v.eval_at(-1) for v in values)
                if n % 2:
                    holds = plus == minus and naive == -2 * plus
                else:
                    holds = naive == -(plus + minus)
                if not holds:
                    failures.append(
                        f"{g.render()} n={n}: plus {plus}, minus {minus}, "
                        f"naive {naive} at u = -1 [FAIL]"
                    )
    return _identity_section(
        "chi-c-identity", f"{count} (germ, n) triples compared", failures
    )


#: The suite's sections in report order; each adjudicates one claim.
_SECTIONS = (
    _quadric_catalog,
    _closed_vs_recursive,
    _oracle_vs_formulas,
    _report_values,
    _cube_jet_classes,
    _variant_adjudication,
    _odd_order_identity,
    _chi_c_identity,
)


def verify_paper_suite() -> SuiteReport:
    """Run every adjudication the acceptance grid rests on, one per ``_SECTIONS`` entry."""
    return SuiteReport(tuple(section() for section in _SECTIONS))
