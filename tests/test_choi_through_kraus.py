"""A map given by r < n = d_in * d_out Kraus operators is read through them.

A ``KrausChannel``'s own stack, and the one ``to_choi`` keeps on the Choi matrix it
builds, give the n x r factor F with d_in * Omega = F F^dag.  ``min_eigenvalue``,
``certify``, ``from_choi``, ``process_fidelity`` and ``to_chi`` then work on F.  A Choi
matrix rebuilt from its entries alone, or one with r >= n, takes the n x n path.
"""

import numpy as np
import pytest

from qitools import channels
from qitools.channels import (ChoiMatrix, KrausChannel, certify, from_choi, process_fidelity,
                              to_chi, to_choi, unitary_channel)
from qitools.discrimination import fidelity
from qitools.entanglement import chsh_operator
from qitools.linalg import _eig_tol, _herm, _kraus_columns, eigh
from qitools.observables import stern_gerlach
from qitools.states import _operator_stack

DIMS = [(2, 2), (3, 3), (2, 3), (3, 2), (4, 2)]  # (d_in, d_out)


def kraus(rng, d_in, d_out, r):
    """r operators from the blocks of a random isometry (trace-preserving), or of a
    unit-norm Ginibre matrix when r * d_out < d_in leaves no isometry."""
    z = rng.standard_normal((r * d_out, d_in)) + 1j * rng.standard_normal((r * d_out, d_in))
    q = np.linalg.qr(z)[0] if r * d_out >= d_in else z / np.linalg.norm(z)
    return KrausChannel(q.reshape(r, d_out, d_in))


def ranks(d_in, d_out):
    n = d_in * d_out
    return sorted({1, 2, n - 1, n, n + 1})


def rebuilt(choi):
    return ChoiMatrix(choi.matrix, choi.in_dim, choi.out_dim)


def numerical_rank(choi):
    vals = np.linalg.eigvalsh(choi.in_dim * choi.matrix)
    return int((vals > _eig_tol(vals, 1e-9)).sum())


@pytest.mark.parametrize("d_in, d_out", DIMS)
def test_from_choi_round_trip_and_certify(d_in, d_out):
    rng = np.random.default_rng([d_in, d_out])
    n = d_in * d_out
    for r in ranks(d_in, d_out):
        ch = kraus(rng, d_in, d_out, r)
        choi = to_choi(ch)
        back = from_choi(choi)
        assert len(back.kraus_ops) == numerical_rank(choi) == min(r, n)
        assert np.abs(to_choi(back).matrix - choi.matrix).max() <= 1e-12
        report = certify(choi)
        assert report == certify(ch)
        assert report["cp"] and report["trace_decreasing"]
        assert report["tp"] == (r * d_out >= d_in)  # else no isometry: not trace-preserving
        if r < n:
            assert report["choi_min_eig"] == 0.0


@pytest.mark.parametrize("d_in, d_out", DIMS)
def test_kraus_path_operators_are_orthogonal_and_descending(d_in, d_out):
    """The columns F w_k are sqrt(lambda_k) v_k: Gram diag(lambda), lambda descending."""
    rng = np.random.default_rng([d_in, d_out, 1])
    ch = kraus(rng, d_in, d_out, d_in * d_out - 1)
    ops = from_choi(to_choi(ch)).kraus_ops
    v = ops.reshape(len(ops), -1)
    gram = v.conj() @ v.T
    lam = np.linalg.eigvalsh(d_in * to_choi(ch).matrix)[::-1][:len(ops)]
    assert np.abs(gram - np.diag(lam)).max() <= 1e-12
    assert (np.diff(np.diag(gram).real) <= 1e-15).all()


def test_duplicated_operators_count_the_gram_rank():
    rng = np.random.default_rng(7)
    a, b = kraus(rng, 3, 3, 2).kraus_ops / np.sqrt(2)
    ch = KrausChannel([a, a, b])  # three operators, Gram rank 2
    choi = to_choi(ch)
    back = from_choi(choi)
    assert len(back.kraus_ops) == 2
    assert np.abs(to_choi(back).matrix - choi.matrix).max() <= 1e-12
    assert certify(choi) == certify(ch)
    assert certify(ch)["choi_min_eig"] == 0.0


@pytest.mark.parametrize("d_in, d_out", [(2, 2), (3, 2)])
def test_zero_map_keeps_one_zero_operator(d_in, d_out):
    ch = KrausChannel(np.zeros((1, d_out, d_in)))
    back = from_choi(to_choi(ch))
    assert back.kraus_ops.shape == (1, d_out, d_in) and not back.kraus_ops.any()
    assert certify(to_choi(ch)) == certify(ch)
    assert certify(ch)["cp"] and certify(ch)["choi_min_eig"] == 0.0


def test_kept_stack_is_the_channels_own():
    ch = kraus(np.random.default_rng(3), 2, 2, 2)
    assert to_choi(ch)._kraus is ch.kraus_ops


@pytest.mark.parametrize("d_in, d_out", DIMS)
def test_rebuilt_choi_takes_the_dense_path(d_in, d_out):
    """Without the kept stack every result is the n x n computation, bit for bit."""
    rng = np.random.default_rng([d_in, d_out, 2])
    for r in ranks(d_in, d_out):
        choi = to_choi(kraus(rng, d_in, d_out, r))
        plain = rebuilt(choi)
        min_eig = float(np.linalg.eigvalsh(_herm(plain.matrix)).min())
        assert plain.min_eigenvalue() == min_eig
        vals, vecs = eigh(d_in * plain.matrix)
        dense = _kraus_columns(vals, vecs, 1e-9).T.reshape(-1, d_out, d_in)
        assert np.array_equal(from_choi(plain).kraus_ops, dense)
        if r >= d_in * d_out:  # the kept stack changes nothing here
            assert choi.min_eigenvalue() == min_eig
            assert np.array_equal(from_choi(choi).kraus_ops, dense)
            assert certify(choi) == certify(plain)


def factor_cases(rng, d_in, d_out):
    """Channels with r in {1, n - 1, n, n + 1} operators, and one with a duplicated operator."""
    n = d_in * d_out
    chs = [kraus(rng, d_in, d_out, r) for r in (1, n - 1, n, n + 1)]
    a, b = kraus(rng, d_in, d_out, 2).kraus_ops / np.sqrt(2)
    return chs + [KrausChannel([a, a, b])]


def truncated_root(m):
    """sqrt(m) from the dense eigendecomposition, rounding-level eigenvalues dropped."""
    vals, vecs = np.linalg.eigh(m)
    vals = np.where(vals > 1e-12 * vals.max(), vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@pytest.mark.parametrize("d_in, d_out", DIMS)
def test_process_fidelity_matches_the_dense_route(d_in, d_out):
    """Bit-equal to the route through to_choi's kept stacks; against the dense Choi
    states within 1e-12 of a rank-truncated root and within 1e-8 of ``fidelity``,
    whose square roots of rounding-level eigenvalues stand about 1e-8 off."""
    chs = factor_cases(np.random.default_rng([d_in, d_out, 5]), d_in, d_out)
    n = d_in * d_out
    for ch1 in chs:
        for ch2 in chs:
            value = process_fidelity(ch1, ch2)
            assert value == process_fidelity(to_choi(ch1), to_choi(ch2))
            o1, o2 = to_choi(ch1).matrix, to_choi(ch2).matrix
            assert abs(value - fidelity(o1, o2)) <= 1e-8
            if len(ch1.kraus_ops) < n and len(ch2.kraus_ops) < n:
                dense = np.linalg.svd(truncated_root(o1) @ truncated_root(o2), compute_uv=False)
                assert abs(value - dense.sum()) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_kraus_input_chi_is_the_dense_chi(d):
    rng = np.random.default_rng([d, 6])
    z = rng.standard_normal((d * d,) * 2) + 1j * rng.standard_normal((d * d,) * 2)
    mixed = np.einsum("jk,kab->jab", np.linalg.qr(z)[0], _operator_stack(d) / np.sqrt(d))
    for basis in (None, mixed):
        b = (_operator_stack(d) / np.sqrt(d) if basis is None else mixed).reshape(d * d, -1).T
        for ch in factor_cases(rng, d, d):
            dense = b.conj().T @ (d * to_choi(ch).matrix) @ b
            assert np.abs(to_chi(ch, basis).matrix - dense).max() <= 1e-12


def test_kraus_input_forms_no_n_by_n_choi_matrix(monkeypatch):
    """With r < n, certify, process_fidelity and to_chi never build F F^dag."""
    rng = np.random.default_rng(8)
    ch1, ch2 = kraus(rng, 3, 3, 2), kraus(rng, 3, 3, 4)

    def dense(ch):
        raise AssertionError("the n x n Choi matrix was formed")

    monkeypatch.setattr(channels, "_kraus_gram", dense)
    assert certify(ch1)["choi_min_eig"] == 0.0
    assert 0.0 <= process_fidelity(ch1, ch2) <= 1.0
    assert to_chi(ch1).matrix.shape == (9, 9)


def test_process_fidelity_of_unitary_channels():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        u, v = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                for _ in range(2))
        expected = abs(np.trace(u.conj().T @ v)) / d
        assert abs(process_fidelity(unitary_channel(u), unitary_channel(v)) - expected) <= 1e-14


def test_bloch_directions_share_one_check():
    """stern_gerlach and chsh_operator reject a non-unit direction with one message."""
    z = (0, 0, 1)
    with pytest.raises(ValueError) as sg:
        stern_gerlach((0, 0, 1.1))
    with pytest.raises(ValueError) as chsh:
        chsh_operator(z, z, z, (0, 0.5, 0))
    assert str(sg.value) == str(chsh.value) == "Bloch directions must be unit vectors"
