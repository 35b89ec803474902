"""The map core: the Kraus and Choi carriers, and the superoperator S formed from them."""

import numpy as np
import pytest

from qitools.channels import (
    ChoiMatrix,
    KrausChannel,
    _dilation_unitary,
    _marginal,
    _superop,
    _superop_to_choi,
    affine_to_choi,
    apply,
    compose,
    conjugate,
    heisenberg_dual,
    make,
    tensor_channels,
    to_affine,
    to_chi,
    to_choi,
    transposition_map,
)
from qitools.linalg import NumericError, complete_unitary, tensor
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
    assert np.abs(_superop_to_choi(_superop(ch), d, d).matrix - ref).max() < 1e-14
    assert np.abs(affine_to_choi(to_affine(ch)).matrix - ref).max() < 1e-14
    rho = random_density(d, rng)
    assert np.abs(apply(choi, rho) - apply(ch, rho)).max() < 1e-14
    back = compose(choi, KrausChannel((np.eye(d, dtype=complex),)))
    assert np.abs(_superop(back) - _superop(ch)).max() < 1e-14


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
    assert np.abs(_superop(compose(again, t)) - np.eye(9)).max() < 1e-15
    assert isinstance(compose(t, t), ChoiMatrix)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_teleport_channel_is_exactly_identity(d):
    assert np.abs(_superop(teleport_channel(d)) - np.eye(d * d)).max() < 1e-14


def test_shift_multiply_basis_rejects_nonpositive_dimension():
    for d in (0, -2):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            ShiftMultiplyBasis.build(d)
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            teleport_channel(d)


def test_gram_schmidt_reorthogonalizes_near_parallel_candidates():
    eps = 1e-10
    col = np.array([[np.cos(eps)], [np.sin(eps)], [0], [0]])
    full = complete_unitary(col)
    assert np.abs(full.conj().T @ full - np.eye(4)).max() < 1e-14
    assert np.array_equal(full[:, :1], col.astype(complex))


def test_dilation_unitary_rejects_a_non_isometric_stack():
    ops = np.stack([np.eye(2), np.eye(2)])  # sum_k A_k^dag A_k = 2 I
    with pytest.raises(NumericError, match="dilation unitary"):
        _dilation_unitary(ops, 2)


# The stacked Kraus paths against their per-operator definitions.

RANKED = [(d, rank) for d in (2, 3, 4, 8) for rank in range(1, d + 1)]


def ops_of(d, rank, seed):
    return random_kraus_ops(d, np.random.default_rng(seed), count=rank)


def close(x, y, tol=1e-13):
    return np.abs(np.asarray(x) - np.asarray(y)).max() <= tol


@pytest.mark.parametrize("d, rank", RANKED)
def test_stacked_kraus_reads_match_the_operator_loops(d, rank):
    ops = ops_of(d, rank, 400 + 10 * d + rank)
    ch = KrausChannel(ops)
    rho = random_density(d, np.random.default_rng(d + rank))
    assert close(_superop(ch), sum(np.kron(a, a.conj()) for a in ops))
    assert close(apply(ch, rho), sum(a @ rho @ a.conj().T for a in ops))
    assert close(ch.normalization(), sum(a.conj().T @ a for a in ops))
    assert close(_marginal(ch, "A"), sum(a.conj().T @ a for a in ops) / d)
    assert close(_marginal(ch, "B"), sum(a @ a.conj().T for a in ops) / d)
    assert close(heisenberg_dual(ch).kraus_ops, [a.conj().T for a in ops])
    # B_m[j, :] is row m of A_j.
    assert close(conjugate(ch).kraus_ops, [[a[m] for a in ops] for m in range(d)])


@pytest.mark.parametrize("d, rank", RANKED)
def test_stacked_compose_and_tensor_match_the_pair_loops(d, rank):
    outer, inner = ops_of(d, rank, 500 + d), ops_of(d, d + 1 - rank, 600 + rank)
    composed = compose(KrausChannel(outer), KrausChannel(inner))
    assert isinstance(composed, KrausChannel)
    assert close(composed.kraus_ops, [a @ b for a in outer for b in inner])
    small = ops_of(2, 2, 700 + d)
    joint = tensor_channels(KrausChannel(outer), KrausChannel(small))
    assert close(joint.kraus_ops, [np.kron(a, b) for a in outer for b in small])


def test_stacked_compose_and_tensor_keep_rectangular_shapes():
    rng = np.random.default_rng(800)
    outer = rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))
    inner = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
    composed = compose(KrausChannel(outer), KrausChannel(inner))
    assert (composed.out_dim, composed.in_dim) == (3, 4)
    assert close(composed.kraus_ops, [a @ b for a in outer for b in inner])
    joint = tensor_channels(KrausChannel(outer), KrausChannel(inner))
    assert joint.kraus_ops.shape == (6, 6, 8)
    assert close(joint.kraus_ops, [np.kron(a, b) for a in outer for b in inner])


@pytest.mark.parametrize("form", [tuple, list, np.array])
def test_kraus_ops_is_one_read_only_stack(form):
    ops = ops_of(3, 2, 900)
    given = form(ops)
    ch = KrausChannel(given)
    assert isinstance(ch.kraus_ops, np.ndarray)
    assert ch.kraus_ops.shape == (2, 3, 3) and ch.kraus_ops.dtype == complex
    assert not ch.kraus_ops.flags.writeable
    assert np.array_equal(ch.kraus_ops, np.array(ops))
    with pytest.raises(ValueError):
        ch.kraus_ops[0, 0, 0] = 1
    assert ops[0].flags.writeable  # the caller's arrays are copied, not frozen
    if isinstance(given, np.ndarray):
        assert given.flags.writeable


def test_kraus_constructor_rejects_malformed_lists():
    with pytest.raises(ValueError, match="an \\(n, d_out, d_in\\) stack, got shape \\(2, 2\\)"):
        KrausChannel(np.eye(2))
    with pytest.raises(ValueError, match="at least one Kraus operator is required"):
        KrausChannel(())
    with pytest.raises(ValueError, match="at least one Kraus operator is required"):
        KrausChannel(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError, match="Kraus operators must share a shape"):
        KrausChannel([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="Kraus operator 1\\[3\\]: entries must be finite"):
        KrausChannel([np.eye(2), np.diag([1, np.inf])])


def test_compose_rejects_dimensions_that_do_not_chain():
    qubit = KrausChannel([np.eye(2)])
    qutrit = KrausChannel([np.eye(3)])
    for outer, inner in ((qubit, qutrit), (transposition_map(2), to_choi(qutrit)),
                         (to_choi(qutrit), transposition_map(2))):
        with pytest.raises(ValueError, match="cannot compose a map on dimension"):
            compose(outer, inner)
    rect = KrausChannel(np.ones((1, 3, 2)))  # C^2 -> C^3
    assert compose(qutrit, rect).kraus_ops.shape == (1, 3, 2)
    with pytest.raises(ValueError, match="cannot compose"):
        compose(rect, qutrit)


def test_choi_matrix_copies_and_freezes_its_matrix():
    vec_id = np.eye(2, dtype=complex).reshape(-1)
    m = np.outer(vec_id, vec_id) / 2
    choi = ChoiMatrix(m, 2, 2)  # the identity map: Omega = P+
    m[0, 0] = np.nan  # the caller's array is copied, not frozen
    assert np.array_equal(apply(choi, np.eye(2)), np.eye(2))
    assert not choi.matrix.flags.writeable
    with pytest.raises(ValueError):
        choi.matrix[0, 0] = 1


def test_choi_matrix_rejects_a_malformed_matrix():
    with pytest.raises(ValueError, match="Choi matrix shape does not match the declared"):
        ChoiMatrix(np.eye(3), 2, 2)
    m = np.eye(4)
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="Choi matrix\\[6\\]: entries must be finite"):
        ChoiMatrix(m, 2, 2)


def test_map_carriers_compare_by_identity():
    ch = make("depolarizing", d=2, p=0.3)
    assert (make("depolarizing", d=2, p=0.3) == make("depolarizing", d=2, p=0.3)) is False
    for rep in (ch, to_choi(ch), to_chi(ch), to_affine(ch), transposition_map(2)):
        assert rep == rep
        assert {rep: 1}[rep] == 1 and hash(rep) == hash(rep)
