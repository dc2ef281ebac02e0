"""Every module-level import is used by the module that makes it, and
every name a module exports through ``__all__`` exists.

A stdlib stand-in for a linter's unused-import rule, over the package
and the tests.  ``from __future__`` imports and the names
``arczeta/__init__.py`` re-exports through ``__all__`` are exempt.

The package also imports nothing inside a function: every dependency of
a module shows in its import block.  Tests may import locally.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "arczeta").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def function_imports(source: str) -> list[str]:
    """'line N: module' for each import made inside a function body."""
    found: set[tuple[int, str]] = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found.update((node.lineno, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add((node.lineno, "." * node.level + (node.module or "")))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_imports_inside_functions_only():
    source = (
        "import os\n"
        "class C:\n"
        "    def m(self):\n"
        "        import json\n"
        "def f():\n"
        "    def g():\n"
        "        from .germs import formula_cell\n"
        "    return os.sep\n"
    )
    assert function_imports(source) == ["line 4: json", "line 7: .germs"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_imports_inside_functions(path):
    found = function_imports(path.read_text(encoding="utf-8"))
    assert found == [], f"{path.name} imports inside a function"


def test_every_exported_name_resolves_once():
    """Each ``__all__`` entry is an attribute of its module, listed once, so
    ``from arczeta.<module> import *`` imports what it promises."""
    stale, repeated = [], []
    for path in PACKAGE:
        name = "arczeta" if path.stem == "__init__" else f"arczeta.{path.stem}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        stale += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
        repeated += [f"{name}.{attr}" for attr, k in Counter(exported).items() if k > 1]
    assert stale == [] and repeated == []


#: The closed forms and the engine are the two independent paths of the
#: hybrid cross-check.  They may share the quadric catalog and the
#: polynomial arithmetic, and nothing else of the package.
INDEPENDENT_PATHS = {
    "formulas": {"quadric", "upoly"},
    "engine": {"mpoly", "quadric", "upoly"},
}


def package_imports(source: str) -> set[str]:
    """The package modules a module imports from, written relative
    (``from .x import``, ``from . import x``) or absolute (``arczeta.x``)."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for path in paths:
            if path.startswith("."):
                found.add(path.lstrip(".").split(".")[0])
            elif path.startswith("arczeta."):
                found.add(path.split(".")[1])
    return found


def test_checker_reads_package_imports_only():
    source = (
        "import os.path\n"
        "from .upoly import ONE\n"
        "from . import germs\n"
        "from arczeta.mpoly import MPoly\n"
        "import arczeta.parser\n"
        "from arczeta import cli\n"
        "def f():\n"
        "    from .engine import beta_of\n"
    )
    assert package_imports(source) == {"upoly", "germs", "mpoly", "parser", "cli", "engine"}


@pytest.mark.parametrize("module", sorted(INDEPENDENT_PATHS))
def test_independent_paths_share_only_the_catalog_and_arithmetic(module):
    source = (ROOT / "src" / "arczeta" / f"{module}.py").read_text(encoding="utf-8")
    assert package_imports(source) <= INDEPENDENT_PATHS[module], (
        f"{module} imports a module outside its independent path"
    )


def names_taken_from(source: str, module: str) -> set[str]:
    """The names a module takes from package module ``module``: imported by
    name (relative or absolute), or read as an attribute of it."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == module) or node.module == f"arczeta.{module}"
        ):
            found.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ):
            found.add(node.attr)
    return found


def test_checker_reads_names_taken_from_one_module():
    source = (
        "from .formulas import VARIANTS, arc_Q\n"
        "from arczeta.formulas import GRID_SIGS\n"
        "from .germs import formula_cell\n"
        "from . import formulas\n"
        "x = formulas.arc_Q_recursive\n"
    )
    assert names_taken_from(source, "formulas") == {
        "VARIANTS", "arc_Q", "GRID_SIGS", "arc_Q_recursive"
    }


#: Names of ``formulas`` that only the verification suite reads: the stated
#: readings it adjudicates and the recursion it checks the closed form against.
VERIFICATION_ONLY = {"VARIANTS", "arc_Q_recursive"}


def test_the_suite_sits_above_the_classifier():
    """``classifier`` imports nothing from ``verify``, and within the package
    only ``verify`` takes the verification-only names of ``formulas``."""
    classifier = (ROOT / "src" / "arczeta" / "classifier.py").read_text(encoding="utf-8")
    # Not left to the import cycle: ``from . import verify`` at the foot of
    # ``classifier`` imports cleanly whichever module loads first.
    assert "verify" not in package_imports(classifier)
    takers = {
        path.stem
        for path in PACKAGE
        if path.stem != "formulas"
        and names_taken_from(path.read_text(encoding="utf-8"), "formulas") & VERIFICATION_ONLY
    }
    assert takers == {"verify"}
