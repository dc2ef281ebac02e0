"""Command-line front end.

Exit codes: 0 = success, 1 = mathematical failure entries present
(an undistinguished pair, a cross-check violation, a suite FAIL),
2 = usage error (bad flags or a germ expression that does not parse).
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import sys

import click

from .classifier import ade_table, distinguish, nonsimple_report, verify_paper_suite
from .engine import EngineOutcome, beta_of
from .germs import (
    CHANNELS,
    SOURCES,
    TARGETS,
    CrossCheckError,
    GermSpec,
    _csv,
    _json,
    analytic_equiv,
    germ_poly,
    zeta_table,
)
from .parser import GermParseError, parse_germ
from .quadric import beta_Y, beta_Y_compl, beta_Y_fiber, beta_Y_star

_FORMATS = click.Choice(["text", "csv", "json"])
_SOURCES = click.Choice(SOURCES)
#: Every --N: a table, a scan or a cube check needs at least the n=2 row.
_ORDER = click.IntRange(min=2)
#: Every --kmax: k = 2 is the least k of any family.
_KMAX = click.IntRange(min=2)


def _parse(expr: str) -> GermSpec:
    try:
        return parse_germ(expr)
    except GermParseError as exc:
        raise click.UsageError(f"{expr!r}: {exc}") from exc


def _render(report, fmt: str) -> str:
    """A report object (``to_text``/``to_csv``/``to_json``) in the chosen format."""
    if fmt == "json":
        return report.to_json() + "\n"
    if fmt == "csv":
        return report.to_csv()
    return report.to_text()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


@click.group()
def main() -> None:
    """Exact zeta tables and blow-Nash classification for germ normal forms."""


@main.command()
@click.argument("germ_expr")
@click.option("--N", "n_max", type=_ORDER, default=6, show_default=True, help="Largest arc order.")
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--source", type=_SOURCES, default="hybrid", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--trace", is_flag=True, help="Append engine traces for oracle-computed cells.")
def zeta(germ_expr: str, n_max: int, fmt: str, source: str, out: str | None, trace: bool) -> None:
    """Zeta table of one germ expression up to order N."""
    if trace and fmt != "text":
        raise click.UsageError("--trace appends text lines, so it needs --format text")
    g = _parse(germ_expr)
    # With --trace every engine run collects its trace, so each cell is
    # decomposed once; the oracle cache, which holds no traces, is bypassed.
    traced: dict[tuple[int, str], EngineOutcome] = {}

    def traced_oracle(g: GermSpec, n: int, channel: str) -> EngineOutcome:
        traced[n, channel] = beta_of(*germ_poly(g), n, TARGETS[channel], collect_trace=True)
        return traced[n, channel]

    try:
        table = zeta_table(g, n_max, source, oracle=traced_oracle if trace else None)
    except CrossCheckError as exc:
        click.echo(f"cross-check failure: {exc}", err=True)
        sys.exit(1)
    text = _render(table, fmt)
    if trace:
        blocks = [text]
        for n, cells in table.rows:
            for channel in CHANNELS:
                outcome = traced.get((n, channel))
                if outcome is not None and cells[channel].provenance != "formula":
                    blocks.append(
                        f"# trace n={n}/{channel} "
                        f"({'ok' if outcome.ok else outcome.failure}, "
                        f"{outcome.strata} strata)\n"
                    )
                    blocks.extend(line + "\n" for line in outcome.trace)
        text = "".join(blocks)
    _emit(text, out)


@main.command(name="distinguish")
@click.argument("germ1")
@click.argument("germ2")
@click.option("--N", "n_max", type=_ORDER, default=9, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--source", type=_SOURCES, default="auto", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def distinguish_cmd(germ1: str, germ2: str, n_max: int, fmt: str, source: str, out: str | None) -> None:
    """First zeta-table cell where two germs differ, if any up to N."""
    g1, g2 = _parse(germ1), _parse(germ2)
    if g1.d != g2.d:
        raise click.UsageError(
            f"germs live in different ambient dimensions ({g1.d} vs {g2.d})"
        )
    dist = distinguish(g1, g2, n_max, source)
    equivalent = g1 == g2 or (g1.is_simple and g2.is_simple and analytic_equiv(g1, g2))
    if fmt == "json":
        payload = dist.to_json_dict()
        payload["analytic_equiv"] = equivalent
        text = _json(payload) + "\n"
    elif fmt == "csv":
        text = _csv(
            ["germ1", "germ2", "verdict", "n", "channel", "value1", "value2"],
            [
                [
                    dist.germ1,
                    dist.germ2,
                    dist.verdict,
                    dist.n if dist.separated else "",
                    dist.channel if dist.separated else "",
                    str(dist.value1) if dist.separated else "",
                    str(dist.value2) if dist.separated else "",
                ]
            ],
        )
    else:
        lines = [f"{dist.germ1}  vs  {dist.germ2}", f"verdict: {dist.verdict}"]
        if dist.separated:
            lines.append(f"value1: {dist.value1}")
            lines.append(f"value2: {dist.value2}")
        else:
            lines.append(f"analytically equivalent: {'yes' if equivalent else 'no'}")
        if dist.unavailable:
            lines.append("unavailable cells: " + ", ".join(dist.unavailable))
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    if not dist.separated and not equivalent:
        sys.exit(1)


@main.command()
@click.option("--d", "dim", type=click.IntRange(min=2), required=True, help="Ambient dimension.")
@click.option("--kmax", type=_KMAX, default=8, show_default=True)
@click.option("--N", "n_max", type=_ORDER, default=9, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--source", type=_SOURCES, default="auto", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def table(dim: int, kmax: int, n_max: int, fmt: str, source: str, out: str | None) -> None:
    """Pairwise classification of all simple germs at ambient dimension d."""
    report = ade_table(dim, kmax, n_max, source)
    _emit(_render(report, fmt), out)
    if not report.ok:
        sys.exit(1)


@main.command()
@click.argument("instances", nargs=-1, required=True)
@click.option("--N", "n_max", type=_ORDER, default=5, show_default=True)
@click.option("--kmax", type=_KMAX, default=8, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def nonsimple(instances: tuple[str, ...], n_max: int, kmax: int, fmt: str, out: str | None) -> None:
    """Separate J-family instances from every simple corank-2 class."""
    germs = [_parse(expr) for expr in instances]
    for g in germs:
        if g.family != "JKI":
            raise click.UsageError(f"{g.render()!r} is not a J-family instance")
    report = nonsimple_report(germs, n_max, kmax)
    _emit(_render(report, fmt), out)
    if not report.ok:
        sys.exit(1)


@main.command()
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def verify(fmt: str, out: str | None) -> None:
    """Run the verification suite: grids, frozen values, adjudications."""
    report = verify_paper_suite()
    _emit(_render(report, fmt), out)
    if not report.ok:
        sys.exit(1)


@main.command()
@click.option(
    "--max", "top", type=click.IntRange(min=0), default=4, show_default=True, help="Largest p and q."
)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def catalog(top: int, fmt: str, out: str | None) -> None:
    """Virtual Poincaré polynomials of the diagonal quadric sets."""
    rows = []
    for p in range(top + 1):
        for q in range(top + 1):
            sig = (p, q)
            rows.append(
                {
                    "p": p,
                    "q": q,
                    "beta_Y": str(beta_Y(sig)),
                    "beta_Y_star": str(beta_Y_star(sig)),
                    "fiber_plus": str(beta_Y_fiber(sig, 1)),
                    "fiber_minus": str(beta_Y_fiber(sig, -1)),
                    "complement": str(beta_Y_compl(sig)),
                }
            )
    cols = ["p", "q", "beta_Y", "beta_Y_star", "fiber_plus", "fiber_minus", "complement"]
    if fmt == "json":
        text = _json(rows) + "\n"
    elif fmt == "csv":
        text = _csv(cols, [[r[c] for c in cols] for r in rows])
    else:
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for r in rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
        text = "\n".join(lines) + "\n"
    _emit(text, out)


if __name__ == "__main__":
    main()
