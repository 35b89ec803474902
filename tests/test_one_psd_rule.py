"""Positivity is decided in ``linalg`` alone.

The one PSD floor, lambda_min >= -tol * max(1, ||a||_2), and its message
"<what> is not PSD: eigenvalue <low> below <floor>" live in
``linalg._require_psd``; the lowest eigenvalue of an operator's Hermitian
part is ``linalg._min_eig``.  Outside ``linalg.py`` no module calls
``.min()`` on an ``eigvalsh(...)`` call.  States, ``psd_sqrt`` and the
CP checks of ``from_choi`` and ``to_chi`` raise through one helper each,
and ``ppt``, ``reduction_criterion`` and ``from_bloch`` decide with the
scaled floor, which on states agrees with the absolute one.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from qitools.channels import from_choi, to_chi, to_choi, transposition_map
from qitools.entanglement import BipartiteState, ppt, reduction_criterion, werner
from qitools.linalg import ATOL, psd_sqrt
from qitools.rand import random_density
from qitools.states import BlochVector, State, from_bloch

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qitools"


def _offences(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "min" and isinstance(node.func.value, ast.Call)):
            inner = node.func.value.func
            called = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
            if called == "eigvalsh":
                out.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return out


def test_no_module_takes_a_lowest_eigenvalue_itself():
    offences = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line in _offences(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not offences, "lowest eigenvalue taken outside linalg:\n" + "\n".join(offences)


def test_the_guard_sees_each_form():
    src = ("a = np.linalg.eigvalsh(m).min()\n"
           "b = float(np.linalg.eigvalsh(_herm(m)).min())\n"
           "c = eigvalsh(m).min(initial=0.0)\n"
           "d = linalg.eigvalsh(x.y).min() < tol\n")
    assert len(_offences(src, "probe")) == 4


def test_the_guard_passes_other_reads():
    src = ("a = np.linalg.eigvalsh(m)[0]\nb = np.linalg.eigvalsh(m).max()\n"
           "vals = np.linalg.eigvalsh(m)\nc = vals.min()\nd = np.linalg.eigh(m)[0].min()\n")
    assert not _offences(src, "probe")


def test_state_and_psd_sqrt_share_one_message():
    with pytest.raises(ValueError, match=r"^state matrix is not PSD: eigenvalue -5\.000e-01 "
                                         r"below -1\.500e-09$"):
        State(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match=r"^matrix is not PSD: eigenvalue -5\.000e-01 "
                                         r"below -1\.500e-09$"):
        psd_sqrt(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match=r"^matrix is not PSD: eigenvalue -1\.000e\+00 "
                                         r"below -1\.000e-09$"):
        psd_sqrt([[1.0, 0.0], [0.0, -1.0]])  # a nested list is read as its array
    stack = np.stack([np.eye(2), np.diag([1.5, -0.5]), np.diag([2.0, -1.0])])
    with pytest.raises(ValueError, match=r"^matrix is not PSD: eigenvalue -5\.000e-01 "
                                         r"below -1\.500e-09$"):
        psd_sqrt(stack)  # the first member that fails is named


def test_from_choi_and_to_chi_share_one_message():
    choi = to_choi(transposition_map(2))
    message = r"^not completely positive: Choi eigenvalue -5\.000e-01$"
    with pytest.raises(ValueError, match=message):
        from_choi(choi)
    with pytest.raises(ValueError, match=message):
        to_chi(choi)
    with pytest.raises(ValueError, match=message):
        to_chi(transposition_map(2))


def _seeded_states():
    rng = np.random.default_rng(2801)
    for d_a, d_b in ((2, 2), (3, 3)):
        for rank in range(1, d_a * d_b + 1):
            for _ in range(3):
                yield BipartiteState(State(random_density(d_a * d_b, rng, rank=rank)), d_a, d_b)
    for d in (2, 3):
        for mu in (0.0, 0.2, 0.5, 0.7, 1.0):
            yield werner(d, mu)


@pytest.mark.parametrize("tol", [ATOL, 1e-3, 0.0])
def test_ppt_and_reduction_keep_the_absolute_verdicts_on_states(tol):
    seen = set()
    for rho in _seeded_states():
        is_ppt, low = ppt(rho, tol=tol)
        assert is_ppt == (low >= -tol)
        detected, e1, e2 = reduction_criterion(rho, tol=tol)
        assert detected == (e1 < -tol or e2 < -tol)
        seen.add((is_ppt, detected))
    assert (True, False) in seen and (False, True) in seen


def test_werner_half_is_ppt_on_its_boundary():
    # mu = 1/2 is the separability threshold: the partial transpose has a
    # zero eigenvalue, which rounding may put just below zero.
    for d in (2, 3):
        is_ppt, low = ppt(werner(d, 0.5))
        assert is_ppt and abs(low) < 1e-15
        assert not reduction_criterion(werner(d, 0.5))[0]
        assert not ppt(werner(d, 0.4))[0]


def test_from_bloch_keeps_the_state_space():
    assert from_bloch(BlochVector(2, [0.0, 0.0, 1.0])).dim == 2
    assert from_bloch(BlochVector(2, [0.0, 0.0, 1.0 + 1e-10])).dim == 2
    with pytest.raises(ValueError, match=r"^Bloch vector lies outside the state space: "
                                         r"eigenvalue -0\.05$"):
        from_bloch(BlochVector(2, [0.0, 0.0, 1.1]))
