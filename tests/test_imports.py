"""Every module-level import is used by the module that makes it.

A stdlib stand-in for a linter's unused-import rule, over the package
and the tests.  ``from __future__`` imports and the names
``arczeta/__init__.py`` re-exports through ``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "arczeta").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each module-level import the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def reexports(source: str) -> set[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_checker_flags_unused_names_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Callable, Literal\n"
        "def f(x: Callable) -> str:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["line 3: js", "line 4: Literal"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    unused = unused_imports(source)
    if path.name == "__init__.py":
        exported = reexports(source)
        unused = [entry for entry in unused if entry.split(": ")[1] not in exported]
    assert unused == [], f"{path.name} imports names it never uses"
