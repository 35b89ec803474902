"""The tolerance scale max(1, ||a||_2) is computed only when a check needs it.

Each predicate is compared with an eager copy that always computes the
scale, on seeded matrices with ||a||_2 > 1 whose defect lies below tol,
between tol and tol * scale, and above tol * scale.
"""

import warnings

import numpy as np
import pytest

from qitools import channels, linalg
from qitools.channels import ChoiMatrix, KrausChannel, to_affine
from qitools.linalg import dag
from qitools.rand import haar_unitary, random_kraus_ops


def eager_scale(a):
    norm = np.linalg.norm(a, 2) if a.size else 0.0
    return max(1.0, float(norm))


def eager_is_hermitian(a, tol):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - dag(a))) <= tol * eager_scale(a))


def eager_is_psd(a, tol):
    a = np.asarray(a, dtype=complex)
    if not eager_is_hermitian(a, tol):
        return False
    evals = np.linalg.eigvalsh((a + dag(a)) / 2)
    return bool(evals.min() >= -tol * eager_scale(a))


def eager_is_unitary(a, tol):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(dag(a) @ a - np.eye(a.shape[0]))) <= tol * eager_scale(a))


def eager_is_projection(a, tol):
    a = np.asarray(a, dtype=complex)
    return eager_is_hermitian(a, tol) and bool(np.max(np.abs(a @ a - a)) <= tol * eager_scale(a))


def eager_is_effect(a, tol):
    a = np.asarray(a, dtype=complex)
    if not eager_is_hermitian(a, tol):
        return False
    evals = np.linalg.eigvalsh((a + dag(a)) / 2)
    s = eager_scale(a)
    return bool(evals.min() >= -tol * s and evals.max() <= 1 + tol * s)


def eager_psd_sqrt(t, tol):
    t = np.asarray(t, dtype=complex)
    if not eager_is_hermitian(t, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh((t + dag(t)) / 2)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    floor = -tol * eager_scale(t)
    if vals.min() < floor:
        raise ValueError(f"matrix is not PSD: eigenvalue {vals.min():.3e} below {floor:.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dag(vecs)


def eager_is_cp(choi, tol):
    return choi.min_eigenvalue() >= -tol * max(1.0, np.linalg.norm(choi.matrix, 2))


def hermitian_with_spectrum(spectrum, seed):
    u = haar_unitary(len(spectrum), seed)
    a = (u * np.asarray(spectrum)) @ dag(u)
    return (a + dag(a)) / 2  # exactly Hermitian


def non_hermitian(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return hermitian_with_spectrum([3.0, 1.0, 0.5, 0.2], seed) + 1e-3 * g


# Each case: (defective matrix with ||a||_2 > 1, its defect, lazy, eager).
CASES = {
    "is_hermitian": (
        lambda: non_hermitian(1),
        lambda a: np.max(np.abs(a - dag(a))),
        linalg.is_hermitian,
        eager_is_hermitian,
    ),
    "is_psd": (
        lambda: hermitian_with_spectrum([2.5, 1.0, 0.3, -0.02], 2),
        lambda a: -np.linalg.eigvalsh(a).min(),
        linalg.is_psd,
        eager_is_psd,
    ),
    "is_unitary": (
        lambda: 1.25 * haar_unitary(3, 3),
        lambda a: np.max(np.abs(dag(a) @ a - np.eye(3))),
        linalg.is_unitary,
        eager_is_unitary,
    ),
    "is_projection": (
        lambda: hermitian_with_spectrum([1.3, 1.0, 0.0, 0.0], 4),
        lambda a: np.max(np.abs(a @ a - a)),
        linalg.is_projection,
        eager_is_projection,
    ),
    "is_effect_lower": (
        lambda: hermitian_with_spectrum([0.9, 0.4, -1.5], 5),
        lambda a: -np.linalg.eigvalsh(a).min(),
        linalg.is_effect,
        eager_is_effect,
    ),
    "is_effect_upper": (
        lambda: hermitian_with_spectrum([2.0, 0.4, 0.0], 6),
        lambda a: np.linalg.eigvalsh(a).max() - 1,
        linalg.is_effect,
        eager_is_effect,
    ),
}

# tol as a function of (defect, scale); "between" puts the defect strictly
# inside (tol, tol * scale].
PLACEMENTS = {
    "below_tol": lambda err, s: 2 * err,
    "between": lambda err, s: err / np.sqrt(s),
    "just_below_scaled": lambda err, s: err / s * (1 + 1e-6),
    "just_above_scaled": lambda err, s: err / s * (1 - 1e-6),
    "above_scaled": lambda err, s: err / (2 * s),
    "zero_tol": lambda err, s: 0.0,
    "negative_tol": lambda err, s: -err,
}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_predicates_match_eager_scale(case, placement):
    build, defect, lazy, eager = CASES[case]
    a = build()
    err, s = float(defect(a)), eager_scale(a)
    assert s > 1 and err > 0
    tol = PLACEMENTS[placement](err, s)
    if placement == "between":
        assert tol < err <= tol * s
    assert lazy(a, tol) == eager(a, tol)
    expected = {
        "below_tol": True,
        "between": True,
        "just_below_scaled": True,
        "just_above_scaled": False,
        "above_scaled": False,
    }
    if placement in expected:
        assert lazy(a, tol) is expected[placement]


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_psd_sqrt_matches_eager_scale(placement):
    a = hermitian_with_spectrum([2.5, 1.0, 0.3, -0.02], 7)
    err, s = 0.02, eager_scale(a)
    tol = PLACEMENTS[placement](err, s)
    try:
        expected = eager_psd_sqrt(a, tol)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            linalg.psd_sqrt(a, tol)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(linalg.psd_sqrt(a, tol), expected)


# Choi matrices scaled to norm 2: the transposition map's (eigenvalues
# +-1/2 before scaling) has defect 2; the full depolarizing channel's (I/4
# before scaling) has defect -2, where a negative tol must not take the
# unscaled shortcut.
SCALED_CHOI = {
    "transposition": lambda: 4 * channels.to_choi(channels.transposition_map(2)).matrix,
    "depolarizing": lambda: 8 * channels.to_choi(channels.make("depolarizing", d=2, p=1.0)).matrix,
}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("kind", sorted(SCALED_CHOI))
def test_is_cp_matches_eager_scale(placement, kind):
    choi = ChoiMatrix(SCALED_CHOI[kind](), 2, 2)
    err, s = -choi.min_eigenvalue(), eager_scale(choi.matrix)
    assert s > 1 and err != 0
    tol = PLACEMENTS[placement](err, s)
    assert choi.is_cp(tol) == eager_is_cp(choi, tol)


# eigvalsh reads this NaN as eigenvalue 0 without complaint, so only the
# scale's SVD reports it.  The predicates and psd_sqrt name it with the
# finite-entry message instead (psd_sqrt in test_linalg.py).
NAN = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)


@pytest.mark.parametrize("predicate", [
    linalg.is_hermitian, linalg.is_psd, linalg.is_unitary, linalg.is_projection, linalg.is_effect,
])
def test_nan_input_is_named_by_the_predicates(predicate):
    with pytest.raises(ValueError, match=r"^matrix\[0\]: entries must be finite, got \[nan, 0\.0\]$"):
        predicate(NAN, linalg.ATOL)


@pytest.mark.parametrize("predicate", [
    linalg.is_hermitian, linalg.is_psd, linalg.is_unitary, linalg.is_projection, linalg.is_effect,
])
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_input_is_named_before_any_arithmetic(predicate, bad):
    # inf - inf in the Hermitian defect and inf * 0 in U^dag U would warn first.
    a = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^matrix\[0\]: entries must be finite, got "):
            predicate(a, linalg.ATOL)


# Inputs of the norm_calls tests, built before any counter is installed:
# the Haar draw behind them is not part of what those tests count.
PSD_INPUT = hermitian_with_spectrum([4.0, 2.0, 1.0, 0.0], 8)
NON_PSD_INPUT = hermitian_with_spectrum([4.0, 2.0, 1.0, -1e-3], 9)


@pytest.fixture
def norm_calls(monkeypatch):
    calls = []
    norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


def test_exact_hermitian_psd_input_computes_no_norm(norm_calls):
    a = PSD_INPUT
    linalg.eigh(a)
    linalg.psd_sqrt(a)
    assert linalg.is_psd(a)
    assert norm_calls == []


def test_failing_check_still_computes_the_scale(norm_calls):
    a = NON_PSD_INPUT
    assert not linalg.is_psd(a)
    assert len(norm_calls) == 1


def test_to_affine_reads_tp_without_certify(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("to_affine must not run a full certification")

    monkeypatch.setattr(channels, "certify", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    aff = to_affine(KrausChannel(tuple(random_kraus_ops(3, 10))))
    assert aff.T.shape == (8, 8)
    with pytest.raises(ValueError, match="requires a trace-preserving map"):
        to_affine(KrausChannel((0.5 * np.eye(2),)))
