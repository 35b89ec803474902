"""An operator's Hermitian part is formed in ``linalg`` alone.

Outside ``linalg.py`` no module adds ``x`` to its conjugate transpose
(``dag(x)``, ``x.conj().T``, ``x.conj().transpose(...)``,
``x.conj().swapaxes(...)`` or ``np.swapaxes(x.conj(), ...)``): Hermitian
parts come from ``linalg._herm``, and the check that an operator is
Hermitian within a tolerance from ``linalg._hermitian`` or
``linalg.is_hermitian``.
"""

import ast
from pathlib import Path

import numpy as np

from qitools import linalg
from qitools.observables import Effect, Povm
from qitools.states import State

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qitools"


def _conj_of(node: ast.AST):
    """x for ``x.conj()``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "conj" and not node.args):
        return node.func.value
    return None


def _adjoint_of(node: ast.AST):
    """x when ``node`` spells the conjugate transpose of x, else None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return _conj_of(node.value)
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == "dag" and len(node.args) == 1:
        return node.args[0]
    if isinstance(func, ast.Attribute) and func.attr in ("transpose", "swapaxes"):
        if isinstance(func.value, ast.Name) and func.value.id == "np" and node.args:
            return _conj_of(node.args[0])  # np.swapaxes(x.conj(), ...)
        return _conj_of(func.value)
    return None


def _offences(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        for x, y in ((node.left, node.right), (node.right, node.left)):
            adj = _adjoint_of(y)
            if adj is not None and ast.dump(adj) == ast.dump(x):
                out.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
                break
    return out


def test_no_module_forms_a_hermitian_part_itself():
    offences = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line in _offences(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not offences, "Hermitian part formed outside linalg:\n" + "\n".join(offences)


def test_the_guard_sees_each_form():
    src = ("a = (m + dag(m)) / 2\n"
           "b = (dag(m) + m) / 2\n"
           "c = (m + m.conj().T) / 2\n"
           "d = (s + s.conj().transpose(0, 2, 1)) / 2\n"
           "e = (s + s.conj().swapaxes(-1, -2)) / 2\n"
           "f = (s + np.swapaxes(s.conj(), 1, 2)) / 2\n"
           "g = (x.y + dag(x.y)) / 2\n")
    assert len(_offences(src, "probe")) == 7


def test_the_guard_passes_other_sums():
    src = ("a = m + dag(n)\nb = m - dag(m)\nc = m + m.T\nd = m @ dag(m)\n"
           "e = m + m.conj()\nf = dag(m) @ m + m\n")
    assert not _offences(src, "probe")


def _nearly_hermitian(diag) -> np.ndarray:
    m = np.diag(diag).astype(complex)
    m[0, 1] = 0.1 + 1e-12j  # Hermitian within ATOL, not exactly
    m[1, 0] = 0.1
    return m


def test_carriers_hold_the_hermitian_part_of_their_input():
    m = _nearly_hermitian([0.5, 0.5])
    part = (m + m.conj().T) / 2
    assert np.array_equal(State(m).matrix, part)
    assert np.array_equal(Effect(m).matrix, part)
    povm = Povm((0, 1), [m, np.eye(2) - m])
    assert np.array_equal(povm.effects[0], part)
    assert np.array_equal(povm.effects[1], ((np.eye(2) - m) + (np.eye(2) - m).conj().T) / 2)


def test_state_effect_and_povm_form_each_hermitian_part_once(monkeypatch):
    calls = []
    herm = linalg._herm
    monkeypatch.setattr(linalg, "_herm", lambda a: calls.append(a.shape) or herm(a))
    m = _nearly_hermitian([0.5, 0.5])
    State(m)
    assert calls == [(2, 2)]
    calls.clear()
    Effect(m)
    assert calls == [(2, 2)]
    calls.clear()
    Povm((0, 1, 2), [m / 2, m / 2, np.eye(2) - m])
    assert calls == [(2, 2)] * 3
