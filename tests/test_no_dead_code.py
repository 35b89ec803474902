"""Every public top-level function or class in the package, and every public
method of such a class, is used somewhere.

A name counts as used when some Python file under ``src/``, ``tests/`` or
``demos/`` refers to it in code: as a name, an attribute or an imported
name (a call inside the defining module counts).  A word in a docstring,
a comment or a string is not a use.  Names with a leading underscore are
private and exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qitools"


def _public(nodes) -> list:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions(path: Path) -> list[str]:
    """Public top-level functions and classes, and the public methods of those classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = _public(tree.body)
    methods = [f"{cls.name}.{node.name}" for cls in top if isinstance(cls, ast.ClassDef)
               for node in _public(cls.body)]
    return [node.name for node in top] + methods


def _references(sources: list[str]) -> Counter:
    """Identifiers that the code of ``sources`` refers to, with their counts."""
    refs = Counter()
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
    return refs


def _unused(definitions: dict[str, list[str]], sources: list[str]) -> list[str]:
    refs = _references(sources)
    return [f"{module}.{name}" for module, names in definitions.items()
            for name in names if not refs[name.rpartition(".")[2]]]


def test_every_public_definition_is_referenced():
    sources = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    definitions = {module.stem: _public_definitions(module)
                   for module in sorted(PACKAGE.glob("*.py"))}
    unused = _unused(definitions, sources)
    assert not unused, f"public definitions referenced nowhere: {unused}"


def test_a_name_only_in_prose_is_unused():
    src = ('def used():\n    """Calls nothing; mentions prose_only."""\n\n'
           "def prose_only():  # prose_only in a comment\n    return 'prose_only'\n\n"
           "used()\nimport m.via_import\nfrom m import by_alias as other\nx = m.attr_use\n")
    names = ["used", "prose_only", "via_import", "by_alias", "C.attr_use", "C.in_prose"]
    assert _unused({"probe": names}, [src]) == ["probe.prose_only", "probe.C.in_prose"]
