"""The qubit decompositions read through the library's own QR and eigh.

``_takagi`` takes the positive eigenvectors of its real embedding and
completes them with ``linalg.complete_unitary``; ``su2_from_rotation``
reads U off the top eigenvector of the rotation's Choi matrix; and the
measure-and-prepare form of an entanglement-breaking qubit channel is
built on both.
"""

import numpy as np
import pytest

from qitools.channels import (
    NumericError,
    _takagi,
    bloch_rotation,
    compose,
    from_choi,
    is_entanglement_breaking,
    make,
    measure_prepare_channel,
    product_decomposition_2x2,
    su2_from_rotation,
    to_choi,
    unitary_channel,
)
from qitools.rand import haar_unitary, random_density, random_kets
from qitools.states import State


def _rebuild_residual(ch) -> float:
    """max |Omega - Omega'| for the measure-and-prepare rebuild of an EB qubit channel."""
    rep = is_entanglement_breaking(ch)
    assert rep["verdict"] == "yes"
    rebuilt = measure_prepare_channel(rep["measure_prepare"])
    return float(np.abs(to_choi(rebuilt).matrix - to_choi(ch).matrix).max())


def _measure_prepare(outcomes: int, pure: bool, rng):
    """Kraus form of rho -> sum_k tr[rho F_k] xi_k for a random rank-one POVM F_k = w_k w_k^dag."""
    v = haar_unitary(outcomes, rng)[:, :2]  # an isometry: sum_k conj(v_k) v_k^T = I
    effects = [np.outer(v[k].conj(), v[k]) for k in range(outcomes)]
    preps = [State(random_density(2, rng, rank=1 if pure else 2)) for _ in range(outcomes)]
    return from_choi(to_choi(measure_prepare_channel(list(zip(effects, preps)))))


@pytest.mark.parametrize("pure", [True, False])
@pytest.mark.parametrize("outcomes", [2, 3])
def test_measure_and_prepare_channels_are_rebuilt(outcomes, pure):
    rng = np.random.default_rng(2810 + 2 * outcomes + pure)
    for _ in range(25):
        assert _rebuild_residual(_measure_prepare(outcomes, pure, rng)) <= 1e-8


@pytest.mark.parametrize("p", [2 / 3, 0.7, 1.0])
def test_rotated_depolarizing_channels_are_rebuilt(p):
    rng = np.random.default_rng(2820)
    for _ in range(10):
        ch = compose(unitary_channel(haar_unitary(2, rng)), make("depolarizing", d=2, p=p))
        assert _rebuild_residual(ch) <= 1e-8


def test_a_rank_deficient_choi_state_with_zero_takagi_values_is_rebuilt():
    # rho -> |0><0| has Choi state |0><0| (x) I / 2 of rank 2, and its tau matrix
    # z_i^dag (Y (x) Y) conj(z_j) vanishes: both Takagi values are zero.
    ch = make("contraction", xi=State(np.diag([1.0, 0.0])))
    assert _rebuild_residual(ch) <= 1e-8


@pytest.mark.parametrize("terms", [1, 2, 3, 6])
def test_product_decomposition_of_a_separable_state(terms):
    rng = np.random.default_rng(2825 + terms)
    a, b = random_kets((2, 2), terms, rng)
    weights = rng.dirichlet(np.ones(terms))
    kets = np.sqrt(weights)[:, None] * np.einsum("ni,nj->nij", a, b).reshape(terms, 4)
    omega = kets.T @ kets.conj()
    zs = product_decomposition_2x2(omega)
    assert np.abs(sum(z @ z.conj().T for z in zs) - omega).max() <= 1e-9
    for z in zs:  # Schmidt rank one
        assert np.linalg.svd(z.reshape(2, 2), compute_uv=False)[1] <= 1e-9


def test_product_decomposition_rejects_an_entangled_state():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    with pytest.raises(ValueError, match="^state is entangled"):
        product_decomposition_2x2(np.outer(bell, bell) * 0.9 + np.eye(4) * 0.025)


def _symmetric(singular_values, seed):
    u = haar_unitary(len(singular_values), seed)
    a = u @ np.diag(singular_values) @ u.T
    return (a + a.T) / 2


@pytest.mark.parametrize("singular_values", [
    [0.0, 0.0, 0.0, 0.0],  # rank 0
    [3.0, 0.0, 0.0, 0.0],  # rank 1
    [2.0, 1.0, 0.5, 0.0],  # rank n - 1
    [1.0, 1.0, 0.5, 0.5],  # repeated values
    [1.0, 1.0, 1.0, 0.0],  # repeated values and a kernel
    [0.0],
    [0.7, 0.0],
])
def test_takagi_is_unitary_and_reproduces_the_matrix(singular_values):
    a = _symmetric(singular_values, 2830 + len(singular_values))
    u, s = _takagi(a)
    n = len(singular_values)
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-14
    assert np.abs(u @ np.diag(s) @ u.T - a).max() <= 1e-7 * max(1.0, np.linalg.norm(a, 2))
    assert np.allclose(s, sorted(singular_values, reverse=True), atol=1e-12)


@pytest.mark.parametrize("r", [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                               np.diag([-1.0, -1.0, 1.0])])
def test_su2_from_rotation_reads_the_identity_and_the_half_turns(r):
    u = su2_from_rotation(r)
    assert np.abs(bloch_rotation(u) - r).max() <= 1e-14
    assert abs(np.linalg.det(u) - 1) <= 1e-14
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-14


def test_su2_from_rotation_reproduces_haar_rotations_with_det_one():
    rng = np.random.default_rng(2840)
    for _ in range(200):
        r = bloch_rotation(haar_unitary(2, rng))
        u = su2_from_rotation(r)
        assert np.abs(bloch_rotation(u) - r).max() <= 1e-14
        assert abs(np.linalg.det(u) - 1) <= 1e-14


def test_su2_from_rotation_rejects_a_non_orthogonal_matrix_with_det_one():
    r = np.diag([2.0, 0.5, 1.0 + 5e-7])  # det within 1e-6 of 1, not a rotation
    with pytest.raises(NumericError, match="^no qubit unitary reproduces the rotation$"):
        su2_from_rotation(r)
