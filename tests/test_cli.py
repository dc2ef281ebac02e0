"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

from arczeta import classifier, cli, engine, germs
from arczeta.cli import main
from arczeta.parser import parse_germ


def run(*args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


# -- zeta ------------------------------------------------------------------------


def test_zeta_text():
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "4")
    assert r.exit_code == 0
    assert "germ: A(2) (+) Q(1,1)" in r.output
    assert "d=3" in r.output
    assert "2*u^7 - u^6" in r.output
    assert "2*u^9 - u^8 - u^7" in r.output


def test_zeta_text_shows_every_value_whole():
    """Values longer than the 34-character columns widen them, and never
    run into the next column: at n=6 plus and minus differ only in the sign
    of their last term, past the 34th character."""
    germ = "D(5,-,+) (+) Q(2,1)"
    text = run("zeta", germ, "--N", "7").output.splitlines()
    rows = json.loads(run("zeta", germ, "--N", "7", "--format", "json").output)["rows"]
    header, lines = text[1], text[2:]
    assert len(lines) == len(rows)
    at_minus, at_naive = header.index("minus"), header.index("naive")
    assert max(len(row["plus"]) for row in rows) > 34
    for line, row in zip(lines, rows):
        assert line[:5] == f"{row['n']:>3}  "
        assert line[5:at_minus].rstrip() == row["plus"]
        assert line[at_minus:at_naive].rstrip() == row["minus"]
        assert line[at_naive:] == row["naive"]
        assert line[at_minus - 2 : at_minus] == line[at_naive - 2 : at_naive] == "  "
    sixth = next(row for row in rows if row["n"] == 6)
    assert sixth["plus"] != sixth["minus"] and sixth["plus"][:34] == sixth["minus"][:34]


def test_zeta_json():
    r = run("zeta", "E8 (+) Q(0,0)", "--N", "5", "--format", "json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["germ"] == "E8 (+) Q(0,0)"
    rows = {row["n"]: row for row in data["rows"]}
    assert rows[5]["plus"] == "u^8"
    assert rows[5]["minus"] == "u^8"
    assert rows[5]["naive"] == "u^9 - u^8"
    assert rows[4]["naive"] == "0"


def test_zeta_csv():
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "3", "--format", "csv")
    assert r.exit_code == 0
    rows = list(csv.reader(io.StringIO(r.output)))
    assert rows[0] == ["germ", "d", "n", "channel", "value", "provenance"]
    assert len(rows) == 1 + 2 * 3


def test_zeta_source_and_trace():
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "4", "--source", "oracle", "--trace")
    assert r.exit_code == 0
    assert "# trace n=2/plus (ok," in r.output
    assert "[leaf]" in r.output or "[split]" in r.output
    # every header starts its own line: the table's last row ends in a newline
    assert r.output.count("\n# trace n=") == r.output.count("# trace n=") == 9
    # formula-only tables have nothing to trace
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "3", "--source", "formulas", "--trace")
    assert r.exit_code == 0
    assert "# trace" not in r.output


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_zeta_trace_needs_text_format(fmt):
    # the trace lines would break the JSON document and the CSV's \r\n line ends
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "3", "--trace", "--format", fmt)
    assert r.exit_code == 2
    assert "--format text" in r.output


def test_zeta_trace_decomposes_each_cell_once(monkeypatch):
    calls = []
    decompose = engine.decompose

    def counting(*args, **kwargs):
        calls.append(args[0])
        return decompose(*args, **kwargs)

    germs._oracle_cached.cache_clear()
    monkeypatch.setattr(engine, "decompose", counting)
    r = run("zeta", "D(4,+,-) (+) Q(1,1)", "--N", "6", "--trace")
    assert r.exit_code == 0
    # 5 rows x 3 channels; 6 cells are oracle-only and print a trace
    assert len(calls) == 15
    assert r.output.count("# trace n=") == 6
    calls.clear()
    plain = run("zeta", "D(4,+,-) (+) Q(1,1)", "--N", "6")
    assert r.output.startswith(plain.output)
    # D(4,+,-) (+) Q(1,1) is its own negation up to x1 -> -x1, so each
    # minus cell is the plus cell at every n (and by t -> -t at odd n)
    assert len(calls) == 10


# sha256 of `zeta "D(4,+,-) (+) Q(1,1)" --N 6 --trace` under each engine-backed
# source: the table and every trace block, byte for byte
PINNED_TRACE_DIGESTS = {
    "oracle": "5963ced66f3153dc4c20ba349bee032b5a2f1eb5c997d1e76d91d09af6153636",
    "hybrid": "41f55975702a9f8d59148ea914d27e1f301d230a644364673eda0b8712590226",
    "auto": "1fa5d6342dd89007768f070c903de78d23b9be9d7c4673c2deb601c30cd6c6e5",
}


@pytest.mark.parametrize("source", sorted(PINNED_TRACE_DIGESTS))
def test_zeta_trace_bytes_are_pinned(source):
    r = run("zeta", "D(4,+,-) (+) Q(1,1)", "--N", "6", "--trace", "--source", source)
    assert r.exit_code == 0
    assert hashlib.sha256(r.stdout_bytes).hexdigest() == PINNED_TRACE_DIGESTS[source]


def test_zeta_trace_of_a_formula_table_runs_no_engine(monkeypatch):
    """Under --source formulas the cells past the closed forms are unavailable
    and no engine ran on them, so there is no trace to show."""
    calls = []
    decompose = engine.decompose

    def counting(*args, **kwargs):
        calls.append(args[0])
        return decompose(*args, **kwargs)

    monkeypatch.setattr(engine, "decompose", counting)
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "4", "--source", "formulas", "--trace")
    assert r.exit_code == 0
    assert "<unavailable>" in r.output
    assert "# trace" not in r.output
    assert r.output == run("zeta", "A(2) (+) Q(1,1)", "--N", "4", "--source", "formulas").output
    assert calls == []


def test_zeta_cross_check_failure_exits_1(monkeypatch):
    g = parse_germ("A(2) (+) Q(1,1)")
    real = germs.formula_cell

    def wrong_at_3_plus(h, n, ch):
        cell = real(h, n, ch)
        return germs.Cell(cell.value + 1, "formula") if (h, n, ch) == (g, 3, "plus") else cell

    monkeypatch.setattr(germs, "formula_cell", wrong_at_3_plus)
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "3")
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr.startswith(f"cross-check failure: cell ({g.render()}, n=3, plus): formula ")


def test_zeta_parse_error_is_exit_2():
    r = run("zeta", "A(3) (+) Q(1,1)")
    assert r.exit_code == 2
    assert "ambiguous" in r.output
    r = run("zeta", "A(2) + Q(1,1)")
    assert r.exit_code == 2
    assert "position" in r.output
    for text in ("A(²,+) (+) Q(1,0)", "A(3,+) (+) Q(1,٣)"):
        r = run("zeta", text)
        assert r.exit_code == 2
        assert "expected an integer" in r.output


def test_zeta_bad_n():
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", "1")
    assert r.exit_code == 2


# Like zeta's, every other --N, --kmax and --max, out of range is a usage error
# (exit 2), never a mathematical failure (exit 1) or a traceback.
@pytest.mark.parametrize(
    "args",
    [
        ("distinguish", "A(2) (+) Q(1,0)", "A(3,+) (+) Q(1,0)", "--N", "1"),
        ("table", "--d", "2", "--N", "1"),
        ("nonsimple", "J(2,0) (+) Q(1,1)", "--N", "0"),
        ("catalog", "--max", "-1"),
        pytest.param(("table", "--d", "3", "--kmax", "-3", "--N", "3"), id="table-kmax"),
        pytest.param(("nonsimple", "J(2,0) (+) Q(1,1)", "--kmax", "-1"), id="nonsimple-kmax"),
    ],
    ids=lambda args: args[0],
)
def test_out_of_range_option_is_exit_2(args):
    r = run(*args)
    assert r.exit_code == 2
    assert "Invalid value" in r.output


def test_zeta_out_file(tmp_path):
    target = tmp_path / "table.json"
    r = run(
        "zeta", "A(2) (+) Q(1,1)", "--N", "3", "--format", "json", "--out", str(target)
    )
    assert r.exit_code == 0
    data = json.loads(target.read_text())
    assert data["N"] == 3


@pytest.mark.parametrize(
    "args", [("zeta", "A(2) (+) Q(1,1)", "--N", "3"), ("table", "--d", "2")], ids=["zeta", "table"]
)
def test_unwritable_out_is_a_usage_error(tmp_path, args):
    target = tmp_path / "missing" / "x"
    r = run(*args, "--out", str(target))
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == f"error: cannot write --out {str(target)!r}: No such file or directory\n"
    assert not target.parent.exists()


def _refuse_compute(monkeypatch):
    """Make every computing entry point of the commands fail if it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the usage error")

    for name in ("zeta_table", "distinguish", "ade_table", "nonsimple_report", "beta_of"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "args", [("zeta", "A(2) (+) Q(1,1)", "--N", "3"), ("table", "--d", "2")], ids=["zeta", "table"]
)
def test_unwritable_out_fails_before_computing(tmp_path, monkeypatch, args):
    _refuse_compute(monkeypatch)
    target = tmp_path / "missing" / "x"
    r = run(*args, "--out", str(target))
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == f"error: cannot write --out {str(target)!r}: No such file or directory\n"
    assert not target.parent.exists()


def test_out_is_written_only_when_the_output_is_ready(tmp_path, monkeypatch):
    """The early --out check creates and truncates nothing: a refused
    command leaves an existing target as it was."""
    _refuse_compute(monkeypatch)
    target = tmp_path / "kept.txt"
    target.write_text("before")
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", str(engine.MAX_ORDER + 1), "--out", str(target))
    assert r.exit_code == 2
    assert target.read_text() == "before"


ABOVE = str(engine.MAX_ORDER + 1)


@pytest.mark.parametrize(
    "args",
    [
        ("zeta", "Q (+) Q(1,0)", "--N", ABOVE),
        ("zeta", "Q (+) Q(1,0)", "--N", ABOVE, "--source", "auto"),
        ("distinguish", "A(2) (+) Q(1,0)", "A(3,+) (+) Q(1,0)", "--N", ABOVE),
        ("table", "--d", "2", "--N", ABOVE, "--source", "oracle"),
        ("nonsimple", "J(2,0) (+) Q(1,1)", "--N", ABOVE),
    ],
    ids=["zeta", "zeta-auto", "distinguish", "table", "nonsimple"],
)
def test_order_above_the_engine_limit_is_exit_2_before_computing(monkeypatch, args):
    _refuse_compute(monkeypatch)
    r = run(*args)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == (
        f"error: --N {ABOVE} is above the engine's largest arc order, {engine.MAX_ORDER}\n"
    )


def test_formula_source_keeps_any_order():
    r = run("zeta", "A(2) (+) Q(1,1)", "--N", ABOVE, "--source", "formulas", "--format", "csv")
    assert r.exit_code == 0
    assert list(csv.reader(io.StringIO(r.stdout)))[-1][2:4] == [ABOVE, "naive"]


def test_zeta_deterministic():
    a = run("zeta", "D(4,+,-) (+) Q(1,1)", "--N", "6", "--format", "json").output
    b = run("zeta", "D(4,+,-) (+) Q(1,1)", "--N", "6", "--format", "json").output
    assert a == b


def test_zeta_budget_env_marks_unavailable():
    # fresh process: the in-process value cache would otherwise mask the budget
    proc = subprocess.run(
        [sys.executable, "-m", "arczeta.cli", "zeta", "A(2) (+) Q(1,1)", "--N", "4",
         "--source", "oracle"],
        env={**os.environ, "ARCZETA_STRATUM_BUDGET": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "<unavailable>" in proc.stdout
    assert "u^5 - u^4" in proc.stdout  # n=2 fits even in a single-stratum budget


@pytest.mark.parametrize(
    "value, message",
    [("abc", "must be an integer, got 'abc'"), ("0", "must be positive, got 0")],
)
def test_bad_budget_env_is_exit_2(value, message):
    """A budget the engine cannot use is a usage error (exit 2) with its
    message, never a traceback and exit 1, which reads as a failed check."""
    r = run("zeta", "A(3,+) (+) Q(1,1)", "--N", "4", "--source", "oracle",
            env={engine.BUDGET_ENV: value})
    assert r.exit_code == 2
    assert f"{engine.BUDGET_ENV} {message}" in r.output
    assert "Traceback" not in r.output


# -- distinguish -------------------------------------------------------------------


def test_distinguish_separated_exit_0():
    r = run("distinguish", "A(2) (+) Q(1,1)", "A(3,+) (+) Q(1,1)", "--N", "6")
    assert r.exit_code == 0
    assert "verdict: distinguished at n=3, plus" in r.output
    assert "value1: 2*u^7 - u^6" in r.output
    assert "value2: 2*u^7 - 2*u^6" in r.output


def test_distinguish_equivalent_pair_exit_0():
    r = run("distinguish", "D(4,+,+) (+) Q(0,0)", "D(4,-,-) (+) Q(0,0)", "--N", "6")
    assert r.exit_code == 0
    assert "verdict: indistinguishable <= 6" in r.output
    assert "analytically equivalent: yes" in r.output


@pytest.mark.parametrize("germ2", ["J(2,0) (+) Q(0,0)", "J(2,0; b=1) (+) Q(0,0)"])
def test_distinguish_a_germ_is_equivalent_to_itself(germ2):
    r = run("distinguish", "J(2,0) (+) Q(0,0)", germ2, "--N", "3")
    assert r.exit_code == 0
    assert "analytically equivalent: yes" in r.output
    r = run("distinguish", "J(2,0) (+) Q(0,0)", germ2, "--N", "3", "--format", "json")
    assert json.loads(r.output)["analytic_equiv"] is True


def test_distinguish_unresolved_pair_lists_unavailable_cells_and_exits_1():
    r = run(
        "distinguish", "J(2,0) (+) Q(0,0)", "J(2,1) (+) Q(0,0)", "--N", "3", "--source", "formulas"
    )
    assert r.exit_code == 1
    assert r.output.splitlines()[1:] == [
        "verdict: indistinguishable <= 3",
        "analytically equivalent: no",
        "unavailable cells: n=2/plus, n=2/minus, n=2/naive, n=3/plus, n=3/minus, n=3/naive",
    ]


def test_distinguish_json():
    r = run(
        "distinguish",
        "A(3,+) (+) Q(1,1)",
        "A(3,-) (+) Q(1,1)",
        "--N",
        "6",
        "--format",
        "json",
    )
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["certificate"]["n"] == 4
    assert data["certificate"]["channel"] == "plus"
    assert data["analytic_equiv"] is False


def test_distinguish_dimension_mismatch_exit_2():
    r = run("distinguish", "A(2) (+) Q(1,1)", "A(2) (+) Q(2,1)")
    assert r.exit_code == 2
    assert "ambient dimensions" in r.output


def test_distinguish_csv():
    r = run(
        "distinguish",
        "A(2) (+) Q(1,1)",
        "A(3,+) (+) Q(1,1)",
        "--N",
        "6",
        "--format",
        "csv",
    )
    rows = list(csv.reader(io.StringIO(r.output)))
    assert rows[0] == ["germ1", "germ2", "verdict", "n", "channel", "value1", "value2"]
    assert rows[1][3] == "3"
    assert rows[1][4] == "plus"


# -- table ---------------------------------------------------------------------------


def test_table_d2():
    r = run("table", "--d", "2", "--kmax", "4", "--N", "6")
    assert r.exit_code == 0
    assert "failures: none" in r.output
    assert "classes:" in r.output


def test_table_csv():
    r = run("table", "--d", "2", "--kmax", "4", "--N", "6", "--format", "csv")
    assert r.exit_code == 0
    rows = list(csv.reader(io.StringIO(r.output)))
    assert rows[0] == ["germ1", "germ2", "relation", "n", "channel", "value1", "value2"]
    relations = {row[2] for row in rows[1:]}
    assert relations == {"equivalent", "distinct"}


def test_table_legend_names_every_matrix_cell_kind():
    """The legend explains `=` and `!!`, the only marks a matrix cell holds
    besides a separating n/channel; `==` cannot occur (classes are canonical)."""
    r = run("table", "--d", "2", "--N", "3")
    lines = r.output.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("matrix"))
    legend = lines[start]
    assert "= self" in legend and "!! not separated" in legend and "==" not in legend
    cells = [cell for row in lines[start + 2 :] for cell in row.split()[1:]]
    assert cells and "!!" in cells
    kinds = re.compile(r"\d+/(plus|minus|naive)|=|!!")
    assert all(kinds.fullmatch(cell) for cell in cells)


def test_table_requires_d():
    r = run("table")
    assert r.exit_code == 2
    r = run("table", "--d", "1")
    assert r.exit_code == 2


# -- nonsimple -------------------------------------------------------------------------


def test_nonsimple_j20():
    r = run("nonsimple", "J(2,0) (+) Q(1,1)", "--N", "5")
    assert r.exit_code == 0
    assert "cube-jet cell n=4/plus" in r.output
    assert "[ok]" in r.output
    assert "failures: none" in r.output
    assert "vs E8 (+) Q(1,1): distinguished at n=5, plus" in r.output


def test_nonsimple_skips_an_instance_the_engine_fails_on():
    """With a one-stratum budget the first instance cell fails: the instance is
    skipped, named with its reason in every format, and the exit code is 1."""
    env = {engine.BUDGET_ENV: "1"}
    label = "J(2,0; b=1, c=1) (+) Q(1,1)"
    reason = "engine failure at n=4/plus: depth-exceeded"
    r = run("nonsimple", "J(2,0) (+) Q(1,1)", env=env)
    assert r.exit_code == 1
    assert r.output == (
        f"nonsimple germ report  N=5\ninstance {label}\n  skipped: {reason}\n"
        f"failures: 1\n  {label}: {reason}\n"
    )
    r = run("nonsimple", "J(2,0) (+) Q(1,1)", "--format", "csv", env=env)
    assert r.exit_code == 1
    assert list(csv.reader(io.StringIO(r.output))) == [
        ["instance", "versus", "verdict"],
        [label, "", f"skipped: {reason}"],
    ]
    r = run("nonsimple", "J(2,0) (+) Q(1,1)", "--format", "json", env=env)
    assert r.exit_code == 1
    assert json.loads(r.output) == {
        "N": 5,
        "entries": [{"instance": label, "reason": reason, "skipped": True}],
        "failures": [f"{label}: {reason}"],
        "ok": False,
    }


def test_nonsimple_rejects_a_j_instance_with_a_repeated_cubic_factor():
    # J(2,0; b=-3, c=4) is (x - 2y^2)^2 (x + y^2), singular along x = 2y^2
    r = run("nonsimple", "J(2,0; b=-3, c=4) (+) Q(0,0)")
    assert r.exit_code == 2
    assert "semantic error at position 0: J(k,0) requires 4b^3 + 27c != 0" in r.output


def test_nonsimple_rejects_simple_germ():
    r = run("nonsimple", "E7 (+) Q(0,0)")
    assert r.exit_code == 2
    assert "not a J-family instance" in r.output


def test_nonsimple_csv():
    r = run("nonsimple", "J(2,1) (+) Q(0,0)", "--N", "5", "--format", "csv")
    assert r.exit_code == 0
    rows = list(csv.reader(io.StringIO(r.output)))
    assert rows[0] == ["instance", "versus", "verdict"]
    assert all(row[0] == "J(2,1; a0=1, s=1) (+) Q(0,0)" for row in rows[1:])


# -- verify -----------------------------------------------------------------------------


def test_verify_paper_suite_exit_0():
    r = run("verify")
    assert r.exit_code == 0
    assert "[ok] quadric-catalog" in r.output
    assert "[flagged] variant-adjudication" in r.output
    assert "result: PASS" in r.output


def test_verify_failure_exits_1(monkeypatch):
    real = classifier.arc_Q_recursive

    def off_by_one(l, eps, sig):
        return real(l, eps, sig) + (1 if (l, eps, sig) == (4, 1, (1, 1)) else 0)

    monkeypatch.setattr(classifier, "arc_Q_recursive", off_by_one)
    r = run("verify")
    assert r.exit_code == 1
    assert "[FAIL] closed-vs-recursive" in r.output
    assert "result: FAIL" in r.output


def test_verify_json():
    r = run("verify", "--format", "json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["ok"] is True
    names = [s["name"] for s in data["sections"]]
    assert "variant-adjudication" in names


def test_verify_rejects_unknown_suite():
    r = run("verify", "--suite", "folklore")
    assert r.exit_code == 2


# -- catalog ------------------------------------------------------------------------------


def test_catalog_text():
    r = run("catalog", "--max", "2")
    assert r.exit_code == 0
    assert "beta_Y" in r.output
    assert "2*u - 1" in r.output  # the (1,1) cone


def test_catalog_csv_grid_size():
    r = run("catalog", "--max", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(r.output)))
    assert len(rows) == 1 + 4 * 4
    header = rows[0]
    assert header[:2] == ["p", "q"]
    by_sig = {(row[0], row[1]): row for row in rows[1:]}
    assert by_sig[("2", "1")][header.index("beta_Y")] == "u^2"
    assert by_sig[("2", "1")][header.index("fiber_plus")] == "u^2 + u"


def test_catalog_json():
    r = run("catalog", "--max", "1", "--format", "json")
    data = json.loads(r.output)
    assert len(data) == 4
    assert {row["beta_Y"] for row in data} == {"1", "2*u - 1"}


# -- group ----------------------------------------------------------------------------------


def test_help_lists_commands():
    r = run("--help")
    assert r.exit_code == 0
    for cmd in ("zeta", "distinguish", "table", "nonsimple", "verify", "catalog"):
        assert cmd in r.output


# -- line ends ---------------------------------------------------------------------------

EVERY_COMMAND = [
    ("zeta", "A(3,+) (+) Q(1,1)", "--N", "3"),
    ("distinguish", "A(3,+) (+) Q(1,1)", "A(3,-) (+) Q(1,1)", "--N", "4"),
    ("table", "--d", "2", "--kmax", "3", "--N", "4"),
    ("nonsimple", "J(2,0) (+) Q(0,0)", "--N", "5"),
    ("verify",),
    ("catalog", "--max", "1"),
]


@pytest.mark.parametrize("args", EVERY_COMMAND, ids=lambda args: args[0])
def test_every_csv_ends_lines_with_crlf(args):
    out = run(*args, "--format", "csv").stdout_bytes
    lines = out.split(b"\r\n")
    assert len(lines) > 2 and lines[-1] == b""
    assert not any(b"\n" in line for line in lines)


@pytest.mark.parametrize("args", EVERY_COMMAND, ids=lambda args: args[0])
def test_every_text_ends_in_one_newline(args):
    out = run(*args, "--format", "text").output
    assert out.endswith("\n") and not out.endswith("\n\n")


@pytest.mark.parametrize("args", EVERY_COMMAND, ids=lambda args: args[0])
def test_no_text_line_ends_in_whitespace(args):
    out = run(*args, "--format", "text").output
    assert [line for line in out.splitlines() if line != line.rstrip()] == []


# -- output bytes ---------------------------------------------------------------------------

# sha256 over the exit codes and exact stdout bytes of these commands in every
# format.  A refactor of the renderers must keep it; a deliberate change of
# output must record a new digest.  Re-recorded when the zeta CSV took the
# \r\n line ends of every other CSV, and again when the zeta text took the
# final newline of every other text output; no other byte changed either time.
# Re-recorded once more when the table legend named `!!` instead of `==` and
# the catalog text dropped the spaces padding its last column; only the text
# of `table` and `catalog` changed.
PINNED_OUTPUT = [
    ("table", "--d", "2"),
    ("distinguish", "A(3,+) (+) Q(1,1)", "A(3,-) (+) Q(1,1)"),
    ("distinguish", "D(4,+,+) (+) Q(0,0)", "D(4,-,-) (+) Q(0,0)"),
    ("nonsimple", "J(2,0) (+) Q(1,1)"),
    ("verify",),
    ("catalog", "--max", "2"),
    ("zeta", "A(3,+) (+) Q(1,1)", "--N", "5"),
]
PINNED_OUTPUT_DIGEST = "d34947ba3a1097d1006aad28ee56295b0907aad6fd0c77ca85d214f1faaf748e"


def test_output_bytes_are_pinned():
    digest = hashlib.sha256()
    for args in PINNED_OUTPUT:
        for fmt in ("text", "csv", "json"):
            r = run(*args, "--format", fmt)
            digest.update(f"{' '.join(args)} --format {fmt}: {r.exit_code}\n".encode())
            digest.update(r.stdout_bytes)
    assert digest.hexdigest() == PINNED_OUTPUT_DIGEST
