"""Every public top-level function or class in the package is used somewhere.

A name counts as used when some Python file under ``src/``, ``tests/`` or
``demos/`` mentions it outside its own ``def`` or ``class`` line (a call
inside the defining module counts).  Names with a leading underscore are
private and exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qitools"


def _public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_every_public_definition_is_referenced():
    words = Counter(
        word
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    unused = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in _public_definitions(module)
        if words[name] <= 1  # the one mention is the definition itself
    ]
    assert not unused, f"public definitions referenced nowhere: {unused}"
