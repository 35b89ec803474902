"""How a carrier holds its arrays is decided in ``linalg`` alone.

Outside ``linalg.py`` no module sets an array's ``writeable`` flag, by
assignment or by ``setflags``: read-only arrays come from
``linalg._frozen_copy`` or ``linalg._frozen_stack``, which copy, check and
freeze in one place.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qitools"


def _offences(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        assigned = (
            isinstance(node, ast.Attribute)
            and node.attr == "writeable"
            and isinstance(node.ctx, ast.Store)
        )
        called = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setflags"
        )
        if assigned or called:
            out.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return out


def test_no_module_freezes_an_array_itself():
    offences = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line in _offences(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not offences, "writeable flag set outside linalg:\n" + "\n".join(offences)


def test_the_guard_sees_each_form():
    src = ("a.flags.writeable = False\nb.setflags(write=False)\n"
           "c.flags.writeable, n = False, 1\nok = d.flags.writeable\n")
    assert len(_offences(src, "probe")) == 3
