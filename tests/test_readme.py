"""README's examples: each console transcript and the Library code block run
as written, so the user document cannot drift from the program."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from arczeta.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


CONSOLE = _blocks("console")


def test_readme_has_the_examples_it_is_checked_by():
    assert len(CONSOLE) == 2
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("block", CONSOLE, ids=["zeta", "distinguish"])
def test_console_example_prints_the_readme_text(block):
    command, _, expected = block.partition("\n")
    prog, *args = shlex.split(command.removeprefix("$ "))
    assert prog == "arczeta"
    r = CliRunner().invoke(main, args, catch_exceptions=False)
    assert r.exit_code == 0
    assert r.output == expected


def test_library_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    table, end, trace = printed.partition(" + O(T^7)\n")
    assert table.startswith("Z(T) = (") and "\n" not in table and end
    # then the cached cell's trace, one rule a line, ending with a leaf
    lines = trace.splitlines()
    assert lines and trace.endswith("\n")
    assert all(line.lstrip().startswith("[") for line in lines)
    assert lines[-1].lstrip().startswith("[leaf] ")
