"""Command-line front end.

Exit codes: 0 = success, 1 = mathematical failure entries present
(an undistinguished pair, a cross-check violation, a suite FAIL),
2 = usage error (bad flags, a germ expression that does not parse, an
``--N`` above the engine's largest arc order while the source can reach
the engine, or an ``--out`` file that cannot be written).  The last two
are found before anything is computed, where they can be.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import errno
import os
import stat
import sys
from typing import NoReturn

import click

from .classifier import ade_table, distinguish, nonsimple_report, verify_paper_suite
from .engine import MAX_ORDER, EngineOutcome, beta_of, effective_budget
from .germs import (
    CHANNELS,
    SOURCES,
    TARGETS,
    CrossCheckError,
    GermSpec,
    _csv,
    _json,
    canonicalize,
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


def _usage_exit(message: str) -> NoReturn:
    """A usage error found by a check of ours: one ``error:`` line, exit 2."""
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _check_order(n_max: int, source: str) -> None:
    """Refuse, before computing, an --N the engine cannot build when ``source`` can reach it."""
    if n_max > MAX_ORDER and source != "formulas":
        _usage_exit(f"--N {n_max} is above the engine's largest arc order, {MAX_ORDER}")


def _check_out(ctx: click.Context, param: click.Parameter, out: str | None) -> str | None:
    """--out's callback: refuse a target whose directory is missing or
    unwritable before anything is computed.  It creates no file; anything
    else ``open`` finds wrong is reported by ``_emit`` when it writes."""
    if out is not None:
        parent = os.path.dirname(out) or os.curdir
        try:
            if not stat.S_ISDIR(os.stat(parent).st_mode):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
            if not os.access(parent, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        except OSError as exc:
            _usage_exit(f"cannot write --out {out!r}: {exc.strerror}")
    return out


_out_option = click.option(
    "--out", type=click.Path(dir_okay=False, writable=True), default=None, callback=_check_out
)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _usage_exit(f"cannot write --out {out!r}: {exc.strerror}")


@click.group()
def main() -> None:
    """Exact zeta tables and blow-Nash classification for germ normal forms."""
    # a bad ARCZETA_STRATUM_BUDGET is a usage error, not a failed engine run
    try:
        effective_budget()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command()
@click.argument("germ_expr")
@click.option("--N", "n_max", type=_ORDER, default=6, show_default=True, help="Largest arc order.")
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--source", type=_SOURCES, default="hybrid", show_default=True)
@_out_option
@click.option("--trace", is_flag=True, help="Append engine traces for oracle-computed cells.")
def zeta(germ_expr: str, n_max: int, fmt: str, source: str, out: str | None, trace: bool) -> None:
    """Zeta table of one germ expression up to order N."""
    if trace and fmt != "text":
        raise click.UsageError("--trace appends text lines, so it needs --format text")
    _check_order(n_max, source)
    g = _parse(germ_expr)
    # --trace decomposes each cell once over its own system, bypassing the
    # oracle cache, whose outcome is the run of the orbit's least cell.
    traced: dict[tuple[int, str], EngineOutcome] = {}

    def traced_oracle(g: GermSpec, n: int, channel: str) -> EngineOutcome:
        traced[n, channel] = beta_of(*germ_poly(g), n, TARGETS[channel])
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
@_out_option
def distinguish_cmd(germ1: str, germ2: str, n_max: int, fmt: str, source: str, out: str | None) -> None:
    """First zeta-table cell where two germs differ, if any up to N."""
    _check_order(n_max, source)
    g1, g2 = _parse(germ1), _parse(germ2)
    if g1.d != g2.d:
        raise click.UsageError(
            f"germs live in different ambient dimensions ({g1.d} vs {g2.d})"
        )
    dist = distinguish(g1, g2, n_max, source)
    equivalent = canonicalize(g1) == canonicalize(g2)
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
@_out_option
def table(dim: int, kmax: int, n_max: int, fmt: str, source: str, out: str | None) -> None:
    """Pairwise classification of all simple germs at ambient dimension d."""
    _check_order(n_max, source)
    report = ade_table(dim, kmax, n_max, source)
    _emit(_render(report, fmt), out)
    if not report.ok:
        sys.exit(1)


@main.command()
@click.argument("instances", nargs=-1, required=True)
@click.option("--N", "n_max", type=_ORDER, default=5, show_default=True)
@click.option("--kmax", type=_KMAX, default=8, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@_out_option
def nonsimple(instances: tuple[str, ...], n_max: int, kmax: int, fmt: str, out: str | None) -> None:
    """Separate J-family instances from every simple corank-2 class."""
    _check_order(n_max, "auto")  # the distinguishers resolve cells with "auto"
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
@_out_option
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
@_out_option
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
        lines = ["  ".join(c.ljust(widths[c]) for c in cols).rstrip()]
        for r in rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols).rstrip())
        text = "\n".join(lines) + "\n"
    _emit(text, out)


if __name__ == "__main__":
    main()
