"""The superoperator core: every representation converts through S."""

import numpy as np
import pytest

from qitools.channels import (
    ChoiMatrix,
    KrausChannel,
    LinearMap,
    affine_to_choi,
    apply,
    compose,
    kraus_to_linear_map,
    to_affine,
    to_choi,
    transposition_map,
)
from qitools.linalg import gram_schmidt_complete, tensor
from qitools.protocols import ShiftMultiplyBasis, teleport_channel
from qitools.rand import random_density, random_kraus_ops
from qitools.states import traceless_hermitian_basis


def choi_by_matrix_units(ops, d):
    """Reference Omega = sum_jk E(|j><k|) (x) |j><k| / d."""
    omega = 0
    for j in range(d):
        for k in range(d):
            ejk = np.zeros((d, d))
            ejk[j, k] = 1
            omega = omega + tensor(sum(a @ ejk @ a.conj().T for a in ops), ejk)
    return omega / d


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_representation_gives_the_same_choi(d):
    rng = np.random.default_rng(300 + d)
    ch = KrausChannel(tuple(random_kraus_ops(d, rng, count=3)))
    ref = choi_by_matrix_units(ch.kraus_ops, d)
    choi = to_choi(ch)
    assert np.abs(choi.matrix - ref).max() < 1e-14
    assert np.abs(to_choi(kraus_to_linear_map(ch)).matrix - ref).max() < 1e-14
    assert np.abs(affine_to_choi(to_affine(ch)).matrix - ref).max() < 1e-14
    rho = random_density(d, rng)
    assert np.abs(apply(choi, rho) - apply(ch, rho)).max() < 1e-14
    back = compose(choi, KrausChannel((np.eye(d, dtype=complex),)))
    assert np.abs(back.superop - kraus_to_linear_map(ch).superop).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_affine_matches_the_bloch_definition(d):
    rng = np.random.default_rng(310 + d)
    ch = KrausChannel(tuple(random_kraus_ops(d, rng)))
    aff = to_affine(ch)
    es = traceless_hermitian_basis(d)
    image_id = apply(ch, np.eye(d))
    assert np.allclose(aff.t, [np.trace(e @ image_id).real / d for e in es], atol=1e-14)
    big_t = [[np.trace(ej @ apply(ch, ek)).real / d for ek in es] for ej in es]
    assert np.allclose(aff.T, big_t, atol=1e-14)


def test_non_cp_map_round_trips_through_choi():
    t = transposition_map(3)
    choi = to_choi(t)
    x = random_density(3, np.random.default_rng(320))
    assert np.abs(apply(choi, x) - x.T).max() < 1e-15
    again = ChoiMatrix(choi.matrix, 3, 3)
    assert np.abs(compose(again, t).superop - np.eye(9)).max() < 1e-15
    assert isinstance(compose(t, t), LinearMap)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_teleport_channel_is_exactly_identity(d):
    assert np.abs(teleport_channel(d).superop - np.eye(d * d)).max() < 1e-14


def test_shift_multiply_basis_rejects_nonpositive_dimension():
    for d in (0, -2):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            ShiftMultiplyBasis.build(d)
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            teleport_channel(d)


def test_gram_schmidt_reorthogonalizes_near_parallel_candidates():
    eps = 1e-10
    col = np.array([[np.cos(eps)], [np.sin(eps)], [0], [0]])
    full = gram_schmidt_complete(col)
    assert np.abs(full.conj().T @ full - np.eye(4)).max() < 1e-14
    assert np.array_equal(full[:, :1], col.astype(complex))
