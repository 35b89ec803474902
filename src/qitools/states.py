"""Density matrices: validation, Bloch geometry, mixedness, decompositions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (ATOL, _eig_tol, _frozen_copy, _hermitian, _kraus_columns, _require_finite,
                     _within, asarray, dag, eigh, inner, psd_sqrt)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)


@dataclass(frozen=True, eq=False)
class State:
    """Trace-one positive matrix, optionally with bipartite dimensions."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("a state must be a square matrix")
        _require_finite(m, "state")
        h = _hermitian(m, ATOL)
        if h is None:
            raise ValueError("state matrix is not Hermitian")
        evals = np.linalg.eigvalsh(h)
        if not _within(-evals.min(), ATOL, m):
            raise ValueError(f"state matrix is not PSD: eigenvalue {evals.min():.3e}")
        tr = np.trace(m).real
        if not _within(abs(tr - 1), ATOL, m):
            raise ValueError(f"state trace is {tr}, not 1")
        object.__setattr__(self, "matrix", _frozen_copy(h, "state"))
        object.__setattr__(self, "dim", m.shape[0])

    @classmethod
    def from_ket(cls, psi) -> "State":
        v = asarray(psi).reshape(-1, 1)
        v = v / np.linalg.norm(v)
        return cls(v @ dag(v))

    @classmethod
    def maximally_mixed(cls, d: int) -> "State":
        if d < 1:
            raise ValueError("dimension must be a positive integer")
        return cls(np.eye(d, dtype=complex) / d)

    def is_pure(self, tol: float = ATOL) -> bool:
        return _within(abs(purity(self) - 1), tol, self.matrix)

    def is_boundary(self, tol: float = ATOL) -> bool:
        """True when the state has a zero eigenvalue within tol."""
        return bool(np.linalg.eigvalsh(self.matrix).min() < tol)


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, State) else asarray(rho)


def purity(rho) -> float:
    """tr[rho^2], in (0, 1], equal to 1 exactly for pure states."""
    m = _as_matrix(rho)
    return float(np.trace(m @ m).real)


def von_neumann_entropy(rho, base: str | int = "e") -> float:
    """-tr[rho log rho]; eigenvalues below tolerance contribute zero."""
    m = _as_matrix(rho)
    evals = np.linalg.eigvalsh(m)
    evals = evals[evals > ATOL]
    s = float(-(evals * np.log(evals)).sum())
    if base in (2, "2"):
        s /= np.log(2)
    elif base != "e":
        raise ValueError("base must be 'e' or 2")
    return max(s, 0.0)


@lru_cache(maxsize=None)
def _operator_basis(d: int) -> np.ndarray:
    """Read-only d^2 x d^2 matrix G with columns vec(I), vec(E_1), ..., vec(E_{d^2-1}).

    The E_j are generalized Gell-Mann matrices scaled so tr[E_j E_k] =
    d delta_jk, ordered as symmetric pair operators, antisymmetric pair
    operators, then diagonal ones; for d = 2 they are exactly (sigma_x,
    sigma_y, sigma_z).  Vectorization is row-major, so G^dag G = d I and
    (G^dag vec X)_j = tr[E_j X] for Hermitian X.
    """
    scale = np.sqrt(d / 2)
    ops = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1
            ops.append(scale * m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            ops.append(scale * m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1
        diag[l] = -l
        m = np.diag(diag / np.sqrt(l * (l + 1))).astype(complex)
        ops.append(np.sqrt(2) * scale * m)
    return _frozen_copy(np.stack([op.reshape(-1) for op in ops], axis=1), "operator basis")


@lru_cache(maxsize=None)
def traceless_hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Read-only matrices E_1, ..., E_{d^2-1} of ``_operator_basis(d)``."""
    return tuple(_frozen_copy(_operator_basis(d)[:, 1:].T.reshape(-1, d, d), "operator basis"))


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real coordinates of a state in a traceless Hermitian operator basis."""

    dim: int
    components: np.ndarray

    def __post_init__(self):
        c = _frozen_copy(self.components, "Bloch component", dtype=float)
        if c.shape != (self.dim**2 - 1,):
            raise ValueError(f"expected {self.dim ** 2 - 1} components, got {c.shape}")
        object.__setattr__(self, "components", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return traceless_hermitian_basis(self.dim)


def to_bloch(rho) -> BlochVector:
    m = _as_matrix(rho)
    d = m.shape[0]
    return BlochVector(d, (dag(_operator_basis(d)[:, 1:]) @ m.reshape(-1)).real)


def from_bloch(b: BlochVector, tol: float = ATOL) -> State:
    """State from a Bloch vector; rejects vectors outside the state space."""
    d = b.dim
    g = _operator_basis(d)
    m = ((g[:, 0] + g[:, 1:] @ b.components) / d).reshape(d, d)
    evals = np.linalg.eigvalsh(m)
    if evals.min() < -tol:
        raise ValueError(
            f"Bloch vector lies outside the state space: eigenvalue {evals.min():.6g}"
        )
    return State(m)


def qubit_state(r) -> State:
    """Qubit state (I + r . sigma) / 2 from a 3-vector inside the Bloch ball."""
    return from_bloch(BlochVector(2, np.asarray(r, dtype=float)))


def canonical_decomposition(rho, tol: float = ATOL) -> list[tuple[float, np.ndarray]]:
    """Spectral decomposition as (weight, unit ket) pairs, weights descending."""
    vals, vecs = eigh(_as_matrix(rho))
    cut = _eig_tol(vals, tol)
    return [(float(v), vecs[:, [j]]) for j, v in enumerate(vals) if v > cut]


def convex_decomposition(rho, basis, tol: float = ATOL) -> list[tuple[float, np.ndarray]]:
    """Decomposition induced by an orthonormal basis via the state square root.

    Weight lambda_j = ||sqrt(rho) phi_j||^2 and ket lambda_j^{-1/2}
    sqrt(rho) phi_j; zero-weight terms are dropped.
    """
    m = _as_matrix(rho)
    d = m.shape[0]
    kets = [asarray(v).reshape(-1, 1) for v in basis]
    gram = np.array([[inner(a, b) for b in kets] for a in kets])
    if len(kets) != d or np.max(np.abs(gram - np.eye(d))) > 1e-7:
        raise ValueError("basis is not orthonormal")
    root = psd_sqrt(m)
    out = []
    for phi in kets:
        v = root @ phi
        lam = float(np.linalg.norm(v) ** 2)
        if lam > tol:
            out.append((lam, v / np.sqrt(lam)))
    return out


def purify(rho, tol: float = ATOL) -> np.ndarray:
    """Minimal purification ket on a dim * rank(rho) space, ancilla inner.

    Ancilla basis is computational and all phases are +1, so the result
    is sum_j sqrt(lambda_j) phi_j (x) e_j.
    """
    # The (d, r) columns sqrt(lambda_j) phi_j flattened row-major: system outer.
    psi = _kraus_columns(*eigh(_as_matrix(rho)), tol).reshape(-1, 1)
    return psi / np.linalg.norm(psi)


def interference_term(psi, phi, a: complex, b: complex, effect) -> float:
    """Deviation of the superposition statistics from the mixture statistics.

    For orthogonal unit kets and the superposition (a psi + b phi), the
    value is 2 Re{conj(a) b <psi|E phi>} / (|a|^2 + |b|^2).
    """
    psi = asarray(psi).reshape(-1, 1)
    phi = asarray(phi).reshape(-1, 1)
    if abs(inner(psi, phi)) > 1e-8:
        raise ValueError("interference is defined for orthogonal kets")
    w = abs(a) ** 2 + abs(b) ** 2
    if w == 0:
        raise ValueError("amplitudes must not both vanish")
    e = asarray(effect)
    return float(2 * np.real(np.conj(a) * b * inner(psi, e @ phi)) / w)


def superposition_ket(psi, phi, a: complex, b: complex) -> np.ndarray:
    v = a * asarray(psi).reshape(-1, 1) + b * asarray(phi).reshape(-1, 1)
    return v / np.linalg.norm(v)


def conjugation_average(rho, unitaries, weights=None) -> np.ndarray:
    """Average of U rho U^dag over a family of unitaries."""
    m = _as_matrix(rho)
    n = len(unitaries)
    if weights is None:
        weights = [1.0 / n] * n
    out = np.zeros_like(m)
    for w, u in zip(weights, unitaries):
        out = out + w * (u @ m @ dag(u))
    return out
