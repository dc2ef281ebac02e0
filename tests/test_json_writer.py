"""The package has one JSON writer.

``germs._json`` is the only caller of the stdlib's JSON writer, so the
format (sorted keys, two-space indents, ASCII escapes) is set in one
place.  The classification table's writer in ``classifier``, which renders
each distinct pair body once from a template and splices in the encoded
names, is the only code that encodes JSON strings itself; a test there
checks its text against ``json.dumps``.  A stdlib stand-in for a linter rule, in
the style of ``test_definitions``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "arczeta").glob("*.py"))

#: The stdlib's entry points that write JSON text.
WRITERS = frozenset({"dump", "dumps", "JSONEncoder"})
#: The stdlib's JSON string encoders.
ENCODERS = frozenset({"encode_basestring", "encode_basestring_ascii"})


def json_uses(source: str) -> list[tuple[str, str]]:
    """(top-level definition or "<module>", name) for each use of a name
    of ``WRITERS`` or ``ENCODERS`` in ``source``, imports included."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in WRITERS | ENCODERS:
                found.append((owner, name))
    return found


def package_uses(names: frozenset[str]) -> list[tuple[str, str, str]]:
    """(module file, owner, name) for each use of ``names`` in the package."""
    return sorted(
        (path.name, owner, name)
        for path in PACKAGE
        for owner, name in json_uses(path.read_text(encoding="utf-8"))
        if name in names
    )


def test_checker_finds_writers_and_encoders():
    module = (
        "import json\n"
        "from json import dumps\n"
        "from json.encoder import encode_basestring_ascii as enc\n"
        "def f(x):\n"
        "    return json.dumps(x)\n"
        "class R:\n"
        "    def to_json(self):\n"
        "        return json.encoder.encode_basestring(self.text)\n"
        "loads = json.loads\n"
    )
    assert json_uses(module) == [
        ("<module>", "dumps"),
        ("<module>", "encode_basestring_ascii"),
        ("f", "dumps"),
        ("R", "encode_basestring"),
    ]


def test_json_dumps_is_called_only_by_germs_json():
    assert package_uses(WRITERS) == [("germs.py", "_json", "dumps")]


def test_only_the_table_writer_encodes_strings():
    uses = package_uses(ENCODERS)
    assert uses, "classifier's table writer encodes its strings with the stdlib encoder"
    assert {module for module, _, _ in uses} == {"classifier.py"}
