"""Density matrices: validation, Bloch geometry, mixedness, decompositions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (ATOL, _eig_tol, _frozen_copy, _kraus_columns, _min_eig, _probability_vector,
                     _require_finite, _require_hermitian, _require_psd, _require_size, _within,
                     asarray, dag, eigh, inner, ket, outer, psd_sqrt, unit_ket)


@lru_cache(maxsize=None)
def _operator_stack(d: int) -> np.ndarray:
    """Read-only (d^2, d, d) stack I, E_1, ..., E_{d^2-1}: the one operator basis.

    The E_j are generalized Gell-Mann matrices scaled so tr[E_j E_k] =
    d delta_jk, ordered as symmetric pair operators, antisymmetric pair
    operators, then diagonal ones; for d = 2 they are exactly (sigma_x,
    sigma_y, sigma_z).
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
    return _frozen_copy(np.stack(ops), "operator basis")


@lru_cache(maxsize=None)
def _operator_basis(d: int) -> np.ndarray:
    """Read-only d^2 x d^2 matrix G with columns vec(I), vec(E_1), ... of ``_operator_stack(d)``;
    vectorization is row-major, so G^dag G = d I and (G^dag vec X)_j = tr[E_j X] for Hermitian X.
    """
    return _frozen_copy(_operator_stack(d).reshape(d * d, -1).T.copy(), "operator basis")


def traceless_hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Read-only matrices E_1, ..., E_{d^2-1} of ``_operator_stack(d)``."""
    return tuple(_operator_stack(d)[1:])


# The Paulis (I, sigma_x, sigma_y, sigma_z) are read-only members of the d = 2 stack.
PAULIS = tuple(_operator_stack(2))
PAULI_X, PAULI_Y, PAULI_Z = PAULIS[1:]

# Bloch directions of the named axes.
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def _sigma_dot(n) -> np.ndarray:
    """n . sigma for each real 3-vector along the last axis of ``n``, one Pauli contraction.

    Each entry sums at most one real and one imaginary term, so it is exact.
    """
    return np.tensordot(n, _operator_stack(2)[1:], 1)


def _axis_direction(axis) -> np.ndarray:
    """Unit Bloch direction of an axis name in ``_AXES`` or of a nonzero finite 3-vector."""
    n = np.array(_AXES.get(axis, np.nan) if isinstance(axis, str) else axis, dtype=float)
    if n.shape != (3,) or not np.isfinite(n).all() or not n.any():
        raise ValueError(f"axis must be x, y, z or a nonzero finite 3-vector, got {axis!r}")
    return n / np.linalg.norm(n)


def _unit_directions(directions) -> np.ndarray:
    """Float Bloch directions, or ValueError unless each is a unit vector."""
    n = np.array(directions, dtype=float)
    if not (np.abs(np.linalg.norm(n, axis=-1) - 1) <= 1e-9).all():
        raise ValueError("Bloch directions must be unit vectors")
    return n


@dataclass(frozen=True, eq=False)
class State:
    """Trace-one positive matrix, checked once: a ``State`` given shares its read-only
    matrix unchecked.  A bipartite state is the subclass ``entanglement.BipartiteState``."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if not isinstance(self.matrix, State):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("a state must be a square matrix")
            _require_finite(m, "state")  # the one finiteness check: h is formed from m
            h = _require_hermitian(m, ATOL, "state matrix")
            _require_psd(np.linalg.eigvalsh(h), ATOL, m, "state matrix")
            tr = np.trace(m).real
            if not _within(abs(tr - 1), ATOL, m):
                raise ValueError(f"state trace is {tr}, not 1")
            m = _frozen_copy(h, "state", finite=True)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])

    @classmethod
    def from_ket(cls, psi) -> "State":
        return cls(outer(unit_ket(psi)))

    @classmethod
    def maximally_mixed(cls, d: int) -> "State":
        _require_size(d, "dimension", 1)
        return cls(np.eye(d, dtype=complex) / d)

    def is_pure(self) -> bool:
        return _within(abs(purity(self) - 1), ATOL, self.matrix)

    def is_boundary(self) -> bool:
        """True when the state has a zero eigenvalue within ATOL."""
        return _min_eig(self.matrix) < ATOL


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


def from_bloch(b: BlochVector) -> State:
    """State from a Bloch vector; rejects vectors outside the state space."""
    d = b.dim
    g = _operator_basis(d)
    m = ((g[:, 0] + g[:, 1:] @ b.components) / d).reshape(d, d)
    low = _min_eig(m)
    if not _within(-low, ATOL, m):
        raise ValueError(f"Bloch vector lies outside the state space: eigenvalue {low:.6g}")
    return State(m)


def qubit_state(r) -> State:
    """Qubit state (I + r . sigma) / 2 from a 3-vector inside the Bloch ball."""
    return from_bloch(BlochVector(2, np.asarray(r, dtype=float)))


def canonical_decomposition(rho) -> list[tuple[float, np.ndarray]]:
    """Spectral decomposition as (weight, unit ket) pairs, weights descending."""
    vals, vecs = eigh(_as_matrix(rho))
    cut = _eig_tol(vals, ATOL)
    return [(float(v), vecs[:, [j]]) for j, v in enumerate(vals) if v > cut]


def convex_decomposition(rho, basis) -> list[tuple[float, np.ndarray]]:
    """Decomposition induced by an orthonormal basis via the state square root.

    Weight lambda_j = ||sqrt(rho) phi_j||^2 and ket lambda_j^{-1/2}
    sqrt(rho) phi_j; zero-weight terms are dropped.
    """
    m = _as_matrix(rho)
    d = m.shape[0]
    kets = [ket(v) for v in basis]
    gram = np.array([[inner(a, b) for b in kets] for a in kets])
    if len(kets) != d or not np.max(np.abs(gram - np.eye(d))) <= 1e-7:
        raise ValueError("basis is not orthonormal")
    root = psd_sqrt(m)
    out = []
    for phi in kets:
        v = root @ phi
        lam = float(np.linalg.norm(v) ** 2)
        if lam > ATOL:
            out.append((lam, v / np.sqrt(lam)))
    return out


def purify(rho) -> np.ndarray:
    """Minimal purification ket on a dim * rank(rho) space, ancilla inner.

    Ancilla basis is computational and all phases are +1, so the result
    is sum_j sqrt(lambda_j) phi_j (x) e_j.
    """
    # The (d, r) columns sqrt(lambda_j) phi_j flattened row-major: system outer.
    return unit_ket(_kraus_columns(*eigh(_as_matrix(rho)), ATOL))


def interference_term(psi, phi, a: complex, b: complex, effect) -> float:
    """Deviation of the superposition statistics from the mixture statistics.

    For orthogonal unit kets and the superposition (a psi + b phi), the
    value is 2 Re{conj(a) b <psi|E phi>} / (|a|^2 + |b|^2).
    """
    psi = ket(psi)
    phi = ket(phi)
    if not abs(inner(psi, phi)) <= 1e-8:
        raise ValueError("interference is defined for orthogonal kets")
    w = abs(a) ** 2 + abs(b) ** 2
    if w == 0:
        raise ValueError("amplitudes must not both vanish")
    e = asarray(effect)
    return float(2 * np.real(np.conj(a) * b * inner(psi, e @ phi)) / w)


def superposition_ket(psi, phi, a: complex, b: complex) -> np.ndarray:
    return unit_ket(a * ket(psi) + b * ket(phi))


def maximally_entangled_ket(d: int) -> np.ndarray:
    """psi+ = sum_i |ii> / sqrt(d), as a (d^2, 1) column."""
    return np.eye(d, dtype=complex).reshape(-1, 1) / np.sqrt(d)


def conjugation_average(rho, unitaries, weights=None) -> np.ndarray:
    """Average of U rho U^dag over a family of unitaries, uniform unless ``weights``
    gives a probability vector with one weight per unitary."""
    m = _as_matrix(rho)
    n = len(unitaries)
    message = "weights must form a probability vector, one per unitary"
    weights = np.full(n, 1 / n) if weights is None else _probability_vector(weights, message, n)
    out = np.zeros_like(m)
    for w, u in zip(weights, unitaries):
        out = out + w * (u @ m @ dag(u))
    return out
