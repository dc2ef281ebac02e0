"""Every functools cache in the package decorates a module-level function.

A cold benchmark empties the caches it finds among the modules' own
names before each request.  A cache on a method, a nested function or a
lambda is out of its reach, so it would stay warm and hide engine work.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "arczeta").glob("*.py"))
FACTORIES = {"lru_cache", "cache"}


def misplaced_caches(source: str) -> list[str]:
    """'line N' for each use of functools.lru_cache/cache that is not the
    decorator of a module-level function."""
    tree = ast.parse(source)
    names: set[str] = set()  # local names of the factories
    modules: set[str] = set()  # local names of functools itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in FACTORIES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_factory(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        return (
            isinstance(node, ast.Attribute)
            and node.attr in FACTORIES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    allowed = {
        id(sub)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
        for sub in ast.walk(dec)
    }
    lines = {
        node.lineno for node in ast.walk(tree) if is_factory(node) and id(node) not in allowed
    }
    return [f"line {line}" for line in sorted(lines)]


def test_checker_flags_caches_out_of_reach():
    source = (
        "import functools\n"
        "from functools import lru_cache as memo, cache\n"
        "@memo(maxsize=None)\n"
        "def top(x): return x\n"
        "@functools.cache\n"
        "def top2(x): return x\n"
        "class C:\n"
        "    @cache\n"
        "    def method(self): return 1\n"
        "def outer():\n"
        "    @functools.lru_cache()\n"
        "    def inner(): return 1\n"
        "    return inner\n"
        "square = memo()(lambda x: x * x)\n"
    )
    assert misplaced_caches(source) == ["line 8", "line 11", "line 14"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_decorate_module_level_functions(path):
    assert misplaced_caches(path.read_text(encoding="utf-8")) == []
