"""One operator-basis matrix G: chi, Bloch and IC coordinates as basis changes.

Reference implementations below are the trace-loop forms these functions
had before they became products with G; each is compared with the current
code on seeded random inputs.
"""

import numpy as np
import pytest

from qitools.channels import (
    ChoiMatrix,
    KrausChannel,
    chi_to_kraus,
    to_chi,
    to_choi,
    transposition_map,
)
from qitools.linalg import dag
from qitools.observables import Povm, is_informationally_complete, minimal_ic_povm, stern_gerlach
from qitools.rand import haar_unitary, random_density, random_kraus_ops
from qitools.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    BlochVector,
    _operator_basis,
    _operator_stack,
    from_bloch,
    to_bloch,
    traceless_hermitian_basis,
)

DIMS = [2, 3, 4]


def chi_by_trace_loops(kraus_ops, d):
    """Reference chi[r, s] = sum_n tr(B_r^dag A_n) conj(tr(B_s^dag A_n))."""
    basis = [np.eye(d) / np.sqrt(d)] + [e / np.sqrt(d) for e in traceless_hermitian_basis(d)]
    gram = np.array([[np.trace(dag(a) @ b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-9
    coeff = np.array([[np.trace(dag(b) @ a) for b in basis] for a in kraus_ops])
    return np.einsum("nr,ns->rs", coeff, coeff.conj())


def bloch_by_trace_loop(m):
    """Reference r_j = tr[rho E_j]."""
    return np.array([np.trace(m @ e).real for e in traceless_hermitian_basis(m.shape[0])])


def _hermitian_to_real_vector(m):
    d = m.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate([np.diag(m).real, np.sqrt(2) * m[iu].real, np.sqrt(2) * m[iu].imag])


def ic_by_real_coordinates(povm, tol=1e-9):
    """Reference rank test on real coordinates with v(A).v(B) = tr[AB]."""
    rows = np.stack([_hermitian_to_real_vector(e) for e in povm.effects])
    s = np.linalg.svd(rows, compute_uv=False)
    rank = int((s > tol * s[0]).sum()) if s.size and s[0] > 0 else 0
    return rank == povm.dim**2, s


def random_povm(d, n, rng):
    """n effects V_k^dag V_k from the d x d blocks of a Haar isometry."""
    v = haar_unitary(n * d, rng)[:, :d]
    blocks = v.reshape(n, d, d)
    return Povm(tuple(range(n)), tuple(dag(b) @ b for b in blocks))


@pytest.mark.parametrize("d", DIMS)
def test_operator_basis_columns(d):
    g = _operator_basis(d)
    assert g.shape == (d * d, d * d)
    assert np.array_equal(g[:, 0], np.eye(d).reshape(-1))
    for j, e in enumerate(traceless_hermitian_basis(d), start=1):
        assert np.array_equal(g[:, j], e.reshape(-1))
    assert np.abs(dag(g) @ g - d * np.eye(d * d)).max() < 1e-14


@pytest.mark.parametrize("d", DIMS)
def test_operator_basis_is_read_only(d):
    g = _operator_basis(d)
    assert g is _operator_basis(d)
    with pytest.raises(ValueError, match="read-only"):
        g[0, 0] = 2
    assert g.base is None or not g.base.flags.writeable


@pytest.mark.parametrize("d", DIMS)
def test_operator_stack_holds_the_columns_of_the_basis_matrix(d):
    stack = _operator_stack(d)
    assert stack is _operator_stack(d) and stack.shape == (d * d, d, d)
    assert np.array_equal(stack.reshape(d * d, -1).T, _operator_basis(d))
    assert np.array_equal(stack[0], np.eye(d))
    with pytest.raises(ValueError, match="read-only"):
        stack[1, 0, 0] = 2
    for e in traceless_hermitian_basis(d):
        with pytest.raises(ValueError, match="read-only"):
            e[0, 0] = 2


def test_paulis_are_the_read_only_qubit_stack():
    literals = ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    for p, q, literal in zip(PAULIS, _operator_stack(2), literals):
        assert np.array_equal(p, q) and np.array_equal(p, literal)
        with pytest.raises(ValueError, match="read-only"):
            p[0, 1] = 5
    assert all(a is b for a, b in zip((PAULI_X, PAULI_Y, PAULI_Z), PAULIS[1:]))
    # A write to a Pauli cannot reach the observables built from it.
    with pytest.raises(ValueError, match="read-only"):
        PAULIS[3][1, 1] = 1
    assert np.array_equal(stern_gerlach((0, 0, 1)).effect(-1), [[0, 0], [0, 1]])


@pytest.mark.parametrize("d", DIMS)
def test_to_chi_matches_trace_loops(d):
    rng = np.random.default_rng(700 + d)
    ch = KrausChannel(tuple(random_kraus_ops(d, rng, count=3)))
    ref = chi_by_trace_loops(ch.kraus_ops, d)
    for rep in (ch, to_choi(ch), ChoiMatrix(to_choi(ch).matrix, d, d)):
        assert np.abs(to_chi(rep).matrix - ref).max() < 1e-14


@pytest.mark.parametrize("d", DIMS)
def test_chi_basis_entries_are_read_only(d):
    rng = np.random.default_rng(710 + d)
    ch = KrausChannel(tuple(random_kraus_ops(d, rng)))
    units = list(np.eye(d * d, dtype=complex).reshape(d * d, d, d))
    for chi in (to_chi(ch), to_chi(ch, units)):
        for op in chi.basis:
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 2
    units[0][0, 0] = 2  # the caller's basis stays writable
    assert to_chi(ch).basis[0][0, 0] == pytest.approx(1 / np.sqrt(d))


@pytest.mark.parametrize("d", DIMS)
def test_to_bloch_matches_trace_loop(d):
    rng = np.random.default_rng(720 + d)
    for _ in range(5):
        m = random_density(d, rng)
        b = to_bloch(m)
        assert np.abs(b.components - bloch_by_trace_loop(m)).max() < 1e-14
        back = sum((r * e for r, e in zip(b.components, traceless_hermitian_basis(d))),
                   np.eye(d, dtype=complex)) / d
        assert np.abs(from_bloch(b).matrix - back).max() < 1e-14


@pytest.mark.parametrize("d", DIMS)
def test_informational_completeness_matches_real_coordinates(d):
    rng = np.random.default_rng(730 + d)
    povms = [minimal_ic_povm(d), Povm.from_basis(np.eye(d))]
    povms += [random_povm(d, n, rng) for n in (d * d - 1, d * d, d * d + 2)]
    for povm in povms:
        ref, s_ref = ic_by_real_coordinates(povm)
        assert is_informationally_complete(povm) == ref
        rows = np.stack([e.reshape(-1) for e in povm.effects])
        assert np.abs(np.linalg.svd(rows, compute_uv=False) - s_ref).max() < 1e-12
    assert [is_informationally_complete(p) for p in povms] == [True, False, False, True, True]


def test_bloch_vector_of_a_pure_qutrit_lies_on_the_sphere():
    b = to_bloch(np.diag([1, 0, 0]).astype(complex))
    assert isinstance(b, BlochVector) and b.norm == pytest.approx(np.sqrt(2))


# ---------------------------------------------------------------------------
# The to_chi contract
# ---------------------------------------------------------------------------

def test_to_chi_rejects_non_cp_maps():
    t = transposition_map(2)
    for rep in (t, to_choi(t), ChoiMatrix(to_choi(t).matrix, 2, 2)):
        with pytest.raises(ValueError, match="not completely positive"):
            to_chi(rep)


@pytest.mark.parametrize("d", DIMS)
def test_to_chi_in_matrix_units_round_trips(d):
    rng = np.random.default_rng(740 + d)
    ch = KrausChannel(tuple(random_kraus_ops(d, rng)))
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    chi = to_chi(ch, units)
    # In matrix units B is the identity, so chi is the chi-normalized Choi matrix.
    assert np.abs(chi.matrix - d * to_choi(ch).matrix).max() < 1e-14
    back = chi_to_kraus(chi)
    assert np.abs(to_choi(back).matrix - to_choi(ch).matrix).max() < 1e-12


def test_to_chi_rejects_non_orthonormal_bases():
    ch = KrausChannel((np.eye(2, dtype=complex),))
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    for basis in (2 * units, units[[0, 0, 1, 2]]):
        with pytest.raises(ValueError, match="not Hilbert-Schmidt orthonormal"):
            to_chi(ch, basis)


def test_to_chi_rejects_unequal_dimensions():
    iso = KrausChannel((np.eye(3, 2, dtype=complex),))
    for rep in (iso, to_choi(iso), ChoiMatrix(to_choi(iso).matrix, 2, 3)):
        with pytest.raises(ValueError, match="equal input and output dimensions"):
            to_chi(rep)
    with pytest.raises(ValueError, match="equal input and output dimensions"):
        to_chi(ChoiMatrix(np.zeros((6, 6)), 2, 3))
