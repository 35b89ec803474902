import re

import numpy as np
import pytest

from qitools.linalg import (
    _lowest_eigh,
    _within,
    complete_unitary,
    dag,
    eigh,
    is_hermitian,
    is_projection,
    is_psd,
    is_unitary,
    matrix_rank,
    norms,
    partial_trace,
    partial_transpose,
    polar,
    psd_sqrt,
    tensor,
    trace_norm,
    unit_ket,
)
from qitools.rand import haar_unitary, random_density, random_hermitian, random_ket
from qitools.states import PAULI_X, PAULI_Z

SX, SZ = PAULI_X, PAULI_Z


def test_tensor_identity():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_block_layout():
    # sigma_x (x) sigma_z has the sigma_z blocks off-diagonal, s11 block top-left.
    out = tensor(SX, SZ)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, 2:] = SZ
    expected[2:, :2] = SZ
    assert np.allclose(out, expected)


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        a = random_hermitian(d, rng)
        b = random_hermitian(d, rng)
        assert np.isclose(np.trace(tensor(a, b)), np.trace(a) * np.trace(b))


def test_partial_trace_product():
    rng = np.random.default_rng(1)
    ta = random_hermitian(2, rng)
    tb = random_hermitian(3, rng)
    assert np.allclose(partial_trace(tensor(ta, tb), 2, 3, "A"), np.trace(ta) * tb)
    assert np.allclose(partial_trace(tensor(ta, tb), 2, 3, "B"), np.trace(tb) * ta)


def test_partial_trace_of_bell_state():
    psi = unit_ket([1, 0, 0, 1])
    rho = psi @ dag(psi)
    assert np.allclose(partial_trace(rho, 2, 2, "B"), np.eye(2) / 2)
    assert np.allclose(partial_trace(rho, 2, 2, "A"), np.eye(2) / 2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    t = random_hermitian(6, rng)
    assert np.isclose(np.trace(partial_trace(t, 2, 3, "A")), np.trace(t))


@pytest.mark.parametrize("partial", [partial_trace, partial_transpose])
@pytest.mark.parametrize("t, d, message", [
    (np.arange(16.0).reshape(2, 8), 2, "expected a 4 x 4 matrix, got (2, 8)"),
    (np.eye(4), 3, "expected a 9 x 9 matrix, got (4, 4)"),
])
def test_partial_maps_reject_a_matrix_off_the_product_space(partial, t, d, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        partial(t, d, d)


def test_partial_trace_positivity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_density(6, rng)
        for side in "AB":
            evals = np.linalg.eigvalsh(partial_trace(t, 2, 3, side))
            assert evals.min() > -1e-12


def test_eigh_pauli():
    vals, vecs = eigh(SZ)
    assert np.allclose(vals, [1, -1])
    assert abs(abs(vecs[0, 0]) - 1) < 1e-12
    vals, vecs = eigh(SX)
    assert np.allclose(vals, [1, -1])
    assert np.allclose(np.abs(vecs[:, 0]), [1, 1] / np.sqrt(2))


def test_eigh_reconstruction():
    rng = np.random.default_rng(4)
    t = random_hermitian(5, rng)
    vals, vecs = eigh(t)
    assert np.abs((vecs * vals) @ dag(vecs) - t).max() < 1e-9
    assert np.abs(dag(vecs) @ vecs - np.eye(5)).max() < 1e-9


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    p = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(psd_sqrt(p), p)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_squaring_oracle():
    rng = np.random.default_rng(5)
    t = random_density(4, rng) * 3
    root = psd_sqrt(t)
    assert np.abs(root @ root - t).max() < 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))


def _stack_inputs(d):
    """Members the single-matrix psd_sqrt accepts, including ones that need
    the tolerance: a rounding-level negative eigenvalue, and an error in
    Hermiticity that passes only through the norm scale."""
    rng = np.random.default_rng(d)
    skew = random_hermitian(d, rng) * 1j
    members = [random_density(d, rng), random_density(d, rng, rank=1) * 3,
               np.diag(np.r_[1.0, np.full(d - 1, -5e-10)]).astype(complex),
               1000 * random_density(d, rng) + 5e-8 * skew / np.abs(skew).max()]
    return np.array(members[: 3 if d == 1 else 4])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8])
def test_stacked_psd_sqrt_and_trace_norm_equal_the_matrix_calls(d):
    stack = _stack_inputs(d)
    if d > 1:  # the last member is accepted only through the norm scale
        assert np.abs(stack[-1] - dag(stack[-1])).max() > 1e-9
    roots = psd_sqrt(stack)
    assert roots.shape == stack.shape
    for k, t in enumerate(stack):
        assert np.array_equal(roots[k], psd_sqrt(t))
    norms_ = trace_norm(stack)
    assert norms_.shape == (len(stack),)
    assert all(norms_[k] == trace_norm(t) for k, t in enumerate(stack))
    assert isinstance(trace_norm(stack[0]), float)
    assert psd_sqrt(stack[:0]).shape == (0, d, d)


@pytest.mark.parametrize("bad", [np.array([[0, 1], [0, 0]], dtype=complex),
                                 np.diag([1.0, -0.5]).astype(complex),
                                 np.diag([1e6, -2e-3]).astype(complex)])
def test_stacked_psd_sqrt_rejects_a_member_with_the_matrix_message(bad):
    with pytest.raises(ValueError) as single:
        psd_sqrt(bad)
    # the fourth member fails too, with another eigenvalue: the second is named
    stack = np.array([np.eye(2) / 2, bad, np.eye(2), np.diag([1.0, -0.25])])
    with pytest.raises(ValueError) as stacked:
        psd_sqrt(stack)
    assert str(stacked.value) == str(single.value)
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(np.zeros((2, 2, 3)))


EYE2 = np.eye(2, dtype=complex)


@pytest.mark.parametrize("errs, stack, verdict", [
    (np.zeros(3), np.array([EYE2, 2 * EYE2, EYE2 / 2]), True),
    # the second member fails the unscaled test and passes the one scaled by its norm
    (np.array([0.0, 5e-8]), np.array([EYE2, 1000 * EYE2]), True),
    (np.array([0.0, 5e-6]), np.array([EYE2, 1000 * EYE2]), False),
    (np.array([5e-8, 0.0]), np.array([EYE2, 1000 * EYE2]), False),
    (np.zeros(0), np.zeros((0, 2, 2)), True),
])
def test_within_decides_a_stack_as_all_of_its_members(errs, stack, verdict):
    assert _within(errs, 1e-9, stack) is verdict
    assert all(_within(e, 1e-9, m) for e, m in zip(errs, stack)) is verdict


@pytest.mark.parametrize("fn", [eigh, psd_sqrt])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_matrix_is_named_by_its_first_such_entry(fn, bad):
    # Checked at entry: no SVD of NaN entries, no RuntimeWarning from inf - inf.
    message = f"matrix[2]: entries must be finite, got [{bad}, 0.0]"
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(np.array([[1, 0], [bad, 1]], dtype=complex))


@pytest.mark.parametrize("stack", [  # the member at 1 is not finite
    np.array([[[0, 1], [0, 0]], [[np.nan, 0], [0, 1]]], dtype=complex),  # not only 0 is read
    np.array([EYE2 / 2, [[np.nan, 0], [0, 1]]]),
    np.array([EYE2 / 2, [[1, np.nan], [np.nan, 1]], EYE2]),
    np.array([EYE2 / 2, [[1, np.inf], [np.inf, 1]], EYE2]),
    np.array([EYE2 / 2, [[1, 0], [0, -np.inf]]]),
])
def test_a_stack_with_a_non_finite_member_names_that_member(stack):
    with pytest.raises(ValueError, match=r"^matrix\[\d\]: entries must be finite"):
        psd_sqrt(stack[1])
    with pytest.raises(ValueError, match=r"^matrix 1\[\d\]: entries must be finite"):
        psd_sqrt(stack)


def test_polar_unitary():
    u = haar_unitary(3, np.random.default_rng(6))
    v, abs_t = polar(u)
    assert np.allclose(v, u)
    assert np.allclose(abs_t, np.eye(3))


def test_polar_diagonal():
    v, abs_t = polar(np.diag([-2.0, 3.0]))
    assert np.allclose(v, np.diag([-1.0, 1.0]))
    assert np.allclose(abs_t, np.diag([2.0, 3.0]))


def test_polar_reconstruction():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v, abs_t = polar(t)
    assert np.abs(v @ abs_t - t).max() < 1e-9
    vv = dag(v) @ v
    assert np.abs(vv @ vv - vv).max() < 1e-9  # partial isometry


def test_norms_hermitian_eigenvalues():
    t = np.diag([1.0, -2.0])
    assert np.allclose(norms(t), (2.0, 3.0, np.sqrt(5)))
    assert np.allclose(norms(np.eye(3)), (1.0, 3.0, np.sqrt(3)))


def test_trace_norm_of_pure_difference():
    # ||P1 - P2||_tr = 2 sqrt(1 - tr[P1 P2])
    rng = np.random.default_rng(8)
    k1, k2 = random_ket(3, rng), random_ket(3, rng)
    p1, p2 = k1 @ dag(k1), k2 @ dag(k2)
    lhs = trace_norm(p1 - p2)
    rhs = 2 * np.sqrt(1 - np.trace(p1 @ p2).real)
    assert abs(lhs - rhs) < 1e-10


def test_norm_inequalities_sampled():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op_s, tr_s, hs_s = norms(s)
        op_t, tr_t, _ = norms(t)
        assert norms(s @ t)[0] <= op_s * op_t + 1e-9
        assert op_t <= tr_t + 1e-9
        assert abs(np.trace(t @ s)) <= tr_t * op_s + 1e-9
        # Cauchy-Schwarz for the HS inner product
        assert abs(np.trace(s @ t)) ** 2 <= (
            np.trace(dag(s) @ s) * np.trace(dag(t) @ t)
        ).real + 1e-9


def test_predicates():
    assert is_hermitian(SZ)
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))
    assert is_psd(np.diag([0.0, 1.0]))
    assert not is_psd(SZ)
    assert is_unitary(SX)
    assert not is_unitary(np.diag([1.0, 0.5]))
    assert is_projection(np.diag([1.0, 0.0]))
    assert not is_projection(np.diag([0.5, 1.0]))


@pytest.mark.parametrize("a, rank", [
    (np.zeros((3, 3)), 0),
    (np.zeros((0, 3)), 0),
    (np.diag([2.0, 1e-12, 0.0]), 1),  # 1e-12 is below ATOL * s_max
    (np.diag([1e-6, 1e-12]), 2),  # the cut is relative to s_max
    (np.eye(3), 3),
])
def test_matrix_rank_cuts_relative_to_the_largest_singular_value(a, rank):
    assert matrix_rank(a) == rank


def test_complete_unitary():
    """Seeded isometries of every shape up to 64: the input columns are kept bit
    for bit, and the completion is unitary to rounding."""
    rng = np.random.default_rng(10)
    for dim in range(1, 65):
        for k in sorted({0, 1, dim // 2, dim}):
            z = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
            cols = np.linalg.qr(z)[0]
            full = complete_unitary(cols)
            assert np.array_equal(full[:, :k], cols), (dim, k)
            assert np.abs(full.conj().T @ full - np.eye(dim)).max() <= 1e-14, (dim, k)


def test_partial_trace_linearity():
    rng = np.random.default_rng(11)
    x = random_hermitian(6, rng)
    y = random_hermitian(6, rng)
    for side in "AB":
        lhs = partial_trace(2.0 * x - 0.5 * y, 2, 3, side)
        rhs = 2.0 * partial_trace(x, 2, 3, side) - 0.5 * partial_trace(y, 2, 3, side)
        assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# Lowest eigenpair of a stack: the 2x2 closed form against LAPACK
# ---------------------------------------------------------------------------

def hermitian_2x2(a, d, b):
    return np.array([[a, b], [np.conj(b), d]], dtype=complex)


def lowest_2x2_cases():
    rng = np.random.default_rng(23)
    g = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    cases = list((g + g.conj().transpose(0, 2, 1)) / 2)
    cases += [
        hermitian_2x2(2.0, -1.0, 0.5 - 0.25j),  # a > d
        hermitian_2x2(-3.0, 1.0, 0.1j),  # a < d
        hermitian_2x2(0.7, 0.7, 2.0 + 1.0j),  # a = d, b != 0
        hermitian_2x2(1.5, 1.5, 0.0),  # scalar
        hermitian_2x2(0.0, 0.0, 0.0),
        hermitian_2x2(0.0, 0.0, 1e-300),  # |b| = 1e-300
        hermitian_2x2(1.0, 0.5, 1e-300j),
        hermitian_2x2(1.0, 0.5, 1e-9j),  # the other branch would cancel in lambda - d
        hermitian_2x2(0.5, 1.0, 1e-9),  # and here in lambda - a
        hermitian_2x2(3e150, -1e150, 2e150 - 1e150j),  # entries near 1e150
        hermitian_2x2(1e150, 1e150, 1e150),
    ]
    return np.array(cases)


def test_lowest_eigh_2x2_closed_form_against_lapack():
    h = lowest_2x2_cases()
    vals, vecs = _lowest_eigh(h)
    eps = np.finfo(float).eps
    for k in range(len(h)):
        ref = np.linalg.eigvalsh(h[k])
        scale = np.abs(ref).max()
        assert abs(vals[k] - ref[0]) <= 4 * eps * scale
        v = vecs[k]
        assert abs(np.linalg.norm(v) - 1) <= 4 * eps
        assert np.linalg.norm(h[k] @ v - vals[k] * v) <= 1e-14 * scale
    scalar = _lowest_eigh(np.array([1.5 * np.eye(2), np.zeros((2, 2))]))[1]
    assert scalar.tolist() == [[1, 0], [1, 0]]  # a scalar member gets e_0


def test_lowest_eigh_reads_the_hermitian_part():
    rng = np.random.default_rng(5)
    for k in (2, 3):
        m = rng.standard_normal((6, k, k)) + 1j * rng.standard_normal((6, k, k))
        h = (m + m.conj().transpose(0, 2, 1)) / 2
        for got, want in zip(_lowest_eigh(m), _lowest_eigh(h)):
            assert np.array_equal(got, want)


def test_lowest_eigh_from_3x3_is_lapack():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    h = (g + g.conj().transpose(0, 2, 1)) / 2
    vals, vecs = np.linalg.eigh(h)
    got = _lowest_eigh(h)
    assert np.array_equal(got[0], vals[:, 0]) and np.array_equal(got[1], vecs[:, :, 0])
