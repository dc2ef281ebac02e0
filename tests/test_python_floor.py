"""Every module of the package and the tests parses under the declared
Python floor.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  The floor is
read from it with a regular expression, since ``tomllib`` needs 3.11, and
each file is parsed with ``ast.parse(..., feature_version=floor)``, which
rejects syntax newer than the floor, such as ``except*`` below 3.11.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "arczeta").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_the_check_rejects_syntax_newer_than_the_floor():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_floor())
