"""How a tolerance scales is decided in ``linalg`` alone.

Outside ``linalg.py`` no module multiplies ``ATOL`` or a ``tol`` by a
scale of its own (a dimension or a hand-rebuilt norm), and none builds a
``max(1.0, ...)`` scale: checks go through ``linalg._within`` or a linalg
predicate, and rank cuts through ``linalg._eig_tol``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qitools"
TOLERANCES = {"ATOL", "tol"}


def _is_tolerance(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in TOLERANCES
    return isinstance(node, ast.Attribute) and node.attr in TOLERANCES


def _is_unit_max(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 1
    )


def _offences(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        scaled = (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and (_is_tolerance(node.left) or _is_tolerance(node.right))
        )
        if scaled or _is_unit_max(node):
            out.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return out


def test_no_module_scales_a_tolerance_itself():
    offences = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line in _offences(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not offences, "tolerance scaled outside linalg:\n" + "\n".join(offences)


def test_the_guard_sees_each_form():
    src = "a = tol * d\nb = ATOL * d\nc = d * linalg.ATOL\ne = max(1.0, n)\nf = max(1, n)\n"
    assert len(_offences(src, "probe")) == 5
