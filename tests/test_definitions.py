"""Every module-level definition of the package is used somewhere.

A stdlib stand-in for a linter's dead-code rule: a function, class or
assignment at the top of ``src/arczeta/*.py`` must be referred to by the
rest of its module, or by the package, the tests or the benchmark
harness.  A name counts as referred to when it is loaded, read as an
attribute, imported, or spelled as a string constant (the harness looks
functions up by name).  Its own definition, a recursive call included,
and ``__all__`` lists do not count.  Dunders and decorated functions
(click commands register themselves) are exempt.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "arczeta").glob("*.py"))
USERS = sorted((ROOT / "src").rglob("*.py")) + sorted(
    p for folder in ("tests", "perfbench") for p in (ROOT / folder).glob("*.py")
)


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level definitions that must be used, by name."""
    found: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.decorator_list:
                found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found[node.target.id] = node
    return {
        name: node
        for name, node in found.items()
        if not (name.startswith("__") and name.endswith("__"))
    }


def references(tree: ast.Module, skip: ast.stmt | None = None) -> set[str]:
    """The names ``tree`` refers to outside ``skip`` and its ``__all__``."""
    names: set[str] = set()
    for top in tree.body:
        if top is skip or _is_all(top):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unreferenced(module: str, elsewhere: set[str]) -> list[str]:
    """'line N: name' for each definition of ``module`` that neither the
    rest of ``module`` nor the names in ``elsewhere`` refer to."""
    tree = ast.parse(module)
    return [
        f"line {node.lineno}: {name}"
        for name, node in definitions(tree).items()
        if name not in elsewhere and name not in references(tree, skip=node)
    ]


def test_checker_flags_unreferenced_definitions_only():
    module = (
        "import click\n"
        "__all__ = ['Unused']\n"
        "X = 1\n"
        "Unused = 2\n"
        "def used():\n"
        "    return X\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "@click.command()\n"
        "def command():\n"
        "    pass\n"
        "class Looked:\n"
        "    pass\n"
        "class Dead:\n"
        "    pass\n"
        "__version__ = '1'\n"
    )
    others = ["from m import used\n", "getattr(m, 'Looked')\n"]
    elsewhere = set().union(*(references(ast.parse(source)) for source in others))
    assert unreferenced(module, elsewhere) == [
        "line 4: Unused",
        "line 7: recursive",
        "line 14: Dead",
    ]


@cache
def _file_references(path: Path) -> frozenset[str]:
    return frozenset(references(ast.parse(path.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    elsewhere = set().union(*(_file_references(p) for p in USERS if p != path))
    dead = unreferenced(path.read_text(encoding="utf-8"), elsewhere)
    assert dead == [], f"{path.name} defines names nothing uses"
