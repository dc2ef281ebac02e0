"""Every functools cache in the package is one a cold benchmark empties.

A cold benchmark empties the caches it finds among the names of the
modules it scans before each request.  A cache on a method, a nested
function or a lambda is out of its reach, and so is a module-level cache
in a module it does not scan: either would stay warm and hide work.
"""

import ast
import importlib
import pkgutil
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import arczeta
from arczeta import quadric

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
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


def _is_cache(value) -> bool:
    return callable(getattr(value, "cache_clear", None)) and callable(
        getattr(value, "cache_info", None)
    )


def caches_out_of_reach(collected) -> list[str]:
    """'module.name' for each functools cache among the names of an arczeta
    module that is not one of ``collected``."""
    ids = {id(cache) for cache in collected}
    modules = [arczeta] + [
        importlib.import_module(f"arczeta.{info.name}")
        for info in pkgutil.iter_modules(arczeta.__path__)
    ]
    return sorted(
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, value in vars(mod).items()
        if _is_cache(value) and id(value) not in ids
    )


@pytest.fixture
def perfbench_caches(monkeypatch):
    """The caches perfbench's ``load_program`` collects, read as ``run.py`` does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import run

        yield run.load_program().caches
    finally:
        sys.modules.pop("run", None)


def test_perfbench_empties_every_package_cache(perfbench_caches):
    assert perfbench_caches
    assert caches_out_of_reach(perfbench_caches) == []


def test_a_cache_outside_the_scanned_modules_is_out_of_reach(perfbench_caches, monkeypatch):
    # perfbench does not scan quadric: a catalog memo there would stay warm
    memo = lru_cache(maxsize=None)(lambda sig: sig)
    monkeypatch.setattr(quadric, "_catalog_memo", memo, raising=False)
    assert caches_out_of_reach(perfbench_caches) == ["arczeta.quadric._catalog_memo"]
