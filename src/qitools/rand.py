"""Seeded random objects: kets, unitaries, states, effects, channels."""

from __future__ import annotations

import numpy as np

from .linalg import _herm, _probe_kraus, _unit_rows, basis_ket, dag


def rng_from(seed) -> np.random.Generator:
    """Pass generators through, build one from anything else."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_ket(d: int, rng) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    rng = rng_from(rng)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return (v / np.linalg.norm(v)).reshape(d, 1)


def random_kets(dims, count: int, rng) -> list[np.ndarray]:
    """``count`` random unit kets per factor of ``dims``, each as (count, d) rows.

    One normal block holds the same draws as ``count`` rounds of
    ``random_ket`` over the factors (real part, then imaginary part).
    """
    if any(d < 1 for d in dims):
        raise ValueError("dimension must be a positive integer")
    if count < 0:
        raise ValueError("count must be a non-negative integer")
    z = rng_from(rng).standard_normal((count, 2 * sum(dims)))
    kets, start = [], 0
    for d in dims:
        v = z[:, start:start + d] + 1j * z[:, start + d:start + 2 * d]
        kets.append(_unit_rows(v))
        start += 2 * d
    return kets


def _haar_normals(d: int, count: int, rng, blocks: int = 1) -> np.ndarray:
    """The normal draws behind ``blocks`` stacks of ``count`` Haar unitaries.

    One block of shape (2, count, d, d) per stack: the real parts of all
    ``count`` Ginibre matrices, then all their imaginary parts.  That order
    fixes the seeded stream; ``blocks`` stacks drawn at once, as one array
    of shape (blocks, 2, count, d, d), hold the same numbers as ``blocks``
    separate draws.
    """
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    if count < 0:
        raise ValueError("count must be a non-negative integer")
    return rng_from(rng).standard_normal((blocks, 2, count, d, d))


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from normal blocks z[b, part, m] of ``_haar_normals``, with
    the sample index last: q[j, i, b count + m] = U_bm[i, j].

    Classical Gram-Schmidt on the columns of Ginibre matrices, two passes
    per column: this is the QR factor whose R has a positive real
    diagonal, i.e. QR with the phases of diag(R) divided out (Mezzadri,
    Notices AMS 54, 2007). One pass leaves an orthogonality error that
    grows with the conditioning of the Ginibre matrix (about 5e-14 at
    d = 8; ``random_kraus_ops`` draws d·n ≥ 16); the second pass ("twice
    is enough") brings it back to rounding. With the samples last, every
    step is one elementwise product or sum over all samples at once, and
    each sample's unitary does not depend on how many are run together.
    The layout of the arithmetic does not touch the seeded stream. The
    Ginibre scale drops out in the normalization, so none is applied.
    """
    blocks, _, count, d, _ = z.shape
    q = np.empty((d, d, blocks, count), dtype=complex)
    q.real = z[:, 0].transpose(3, 2, 0, 1)
    q.imag = z[:, 1].transpose(3, 2, 0, 1)
    q = q.reshape(d, d, blocks * count)
    for j in range(d):
        v = q[j]
        if j:
            basis = q[:j]
            bra = basis.conj()
            for _ in range(2):
                v = v - (basis * (bra * v).sum(axis=1)[:, None]).sum(axis=0)
        q[j] = v / np.sqrt((v.conj() * v).real.sum(axis=0))
    return q


def _haar_columns(d: int, count: int, rng) -> np.ndarray:
    """``count`` Haar unitaries with the sample index last: q[j, i, m] = U_m[i, j]."""
    return _gram_schmidt(_haar_normals(d, count, rng))


def haar_unitaries(d: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` Haar unitaries, shape (count, d, d).

    A (count, d, d) view of ``_haar_columns``, which keeps the sample
    index last and draws the normal block of a stack drawn sample first.
    One large draw (count = 1, d in the tens) runs its Gram-Schmidt
    elementwise, without BLAS, and takes about 1.2-1.5x as long as batched
    matrix products would.
    """
    return _haar_columns(d, count, rng).transpose(2, 1, 0)


def haar_unitary(d: int, rng) -> np.ndarray:
    """One Haar unitary: the first of ``haar_unitaries(d, 1, rng)``, drawn by
    two-pass Gram-Schmidt on a Ginibre matrix (QR with positive diag(R))."""
    return haar_unitaries(d, 1, rng)[0]


def random_density(d: int, rng, rank: int | None = None) -> np.ndarray:
    """Random mixed state; full rank unless a smaller rank is requested."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    if rank is not None and rank < 1:
        raise ValueError("rank must be a positive integer")
    rng = rng_from(rng)
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ dag(g)
    return m / np.trace(m).real


def random_hermitian(d: int, rng) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    rng = rng_from(rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _herm(g)


def random_kraus_ops(d: int, rng, count: int | None = None) -> list[np.ndarray]:
    """Kraus operators (I (x) <k|) U (I (x) |0>) of a Haar unitary U on C^d (x) C^count."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    if count is not None and count < 1:
        raise ValueError("count must be a positive integer")
    n = count if count is not None else d
    return list(_probe_kraus(haar_unitary(d * n, rng), d, basis_ket(n, 0)))
