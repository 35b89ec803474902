"""POVMs: validation, sharpness, informational completeness, coarse-graining,
statistics, and photon counting at a Fock cutoff."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .linalg import (ATOL, _effect, _frozen_copy, _frozen_stack, _herm, _require_finite,
                     _require_hermitian, _require_size, _require_unit_interval, _within, asarray,
                     dag, eigh, is_hermitian, is_projection, ket, matrix_rank, outer)
from .states import _as_matrix, _sigma_dot, _unit_directions


def _require_effect(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of ``m``, which must be an effect (O <= E <= I)."""
    h = _effect(m, ATOL)
    if h is None:
        evals = np.linalg.eigvalsh(_herm(m)) if is_hermitian(m) else None
        detail = f" (spectrum {evals})" if evals is not None else " (not Hermitian)"
        raise ValueError("matrix is not an effect: O <= E <= I fails" + detail)
    return h


@dataclass(frozen=True, eq=False)
class Effect:
    """Operator E with O <= E <= I."""

    matrix: np.ndarray

    def __post_init__(self):
        m = asarray(self.matrix)
        _require_finite(m, "effect")
        object.__setattr__(self, "matrix", _frozen_copy(_require_effect(m), "effect"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _effect_matrix(e) -> np.ndarray:
    """The matrix of an ``Effect``, or an array-like read as a complex array."""
    return e.matrix if isinstance(e, Effect) else asarray(e)


def _outcome_labels(outcomes, n: int, mismatch: str) -> tuple:
    """``outcomes`` as a tuple of n distinct labels, or ValueError(mismatch) for another count."""
    outs = tuple(outcomes)
    if len(outs) != n:
        raise ValueError(mismatch)
    if len(set(outs)) != n:
        raise ValueError("outcome labels must be distinct")
    return outs


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite labeled family of effects summing to the identity.

    ``effects`` is one read-only (n, d, d) stack, effect k for outcome k; a
    tuple or list of arrays or ``Effect``s, or a stack, is accepted.
    """

    outcomes: tuple
    effects: np.ndarray = field(repr=False)

    def __post_init__(self):
        effs = [_effect_matrix(e) for e in self.effects]
        stack = _frozen_stack(effs, "POVM effect", "a POVM needs at least one effect", "(n, d, d)")
        stack = np.stack([_require_effect(m) for m in stack])
        outs = _outcome_labels(self.outcomes, len(stack),
                               "outcomes and effects must have the same length")
        total = stack.sum(axis=0)
        err = np.max(np.abs(total - np.eye(len(total))))
        if not _within(err, ATOL, total):
            raise ValueError(f"effects do not sum to the identity (max deviation {err:.3e})")
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "effects", _frozen_copy(stack, "POVM effect"))

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def effect(self, outcome) -> np.ndarray:
        return self.effects[self.outcomes.index(outcome)]

    def subset_effect(self, outcomes) -> np.ndarray:
        """Effect of a subset of outcomes (discrete sigma-algebra)."""
        return self.effects[[self.outcomes.index(x) for x in outcomes]].sum(axis=0)

    @classmethod
    def from_basis(cls, kets) -> "Povm":
        """Sharp observable of an orthonormal basis, outcome k for ket k."""
        effs = tuple(outer(ket(v)) for v in kets)
        return cls(tuple(range(len(effs))), effs)

    @classmethod
    def trivial(cls, d: int, probabilities=(1.0,)) -> "Povm":
        """Trivial observable: effect k is probabilities[k] times the identity."""
        effs = tuple(p * np.eye(d, dtype=complex) for p in probabilities)
        return cls(tuple(range(len(effs))), effs)


def outcome_distribution(a: Povm, rho) -> np.ndarray:
    """Probabilities tr[rho A(x)], clamped to [0, 1]."""
    m = _as_matrix(rho)
    if m.shape[0] != a.dim:
        raise ValueError("state and POVM dimensions do not match")
    p = np.trace(m @ a.effects, axis1=1, axis2=2).real
    if not _within(max(-p.min(), abs(p.sum() - 1)), ATOL, m):
        raise ValueError("outcome probabilities are inconsistent")
    return np.clip(p, 0.0, 1.0)


def is_sharp(a: Povm) -> bool:
    """True iff every effect is a projection; orthogonality is then verified."""
    if not all(is_projection(e) for e in a.effects):
        return False
    for i, e in enumerate(a.effects):
        for f in a.effects[i + 1:]:
            if np.max(np.abs(e @ f)) > 1e-7:
                raise AssertionError("projective effects found non-orthogonal")
    return True


def is_informationally_complete(a: Povm) -> bool:
    """True iff the effects span the full d^2-dimensional Hermitian space.

    The rows are the vectorized effects: vec(E)^dag vec(F) = tr[EF] for
    Hermitian E, F, so they have the singular values of real coordinates.
    """
    return matrix_rank(a.effects.reshape(len(a.effects), -1)) == a.dim**2


def minimal_ic_povm(d: int) -> Povm:
    """Minimal informationally complete POVM with d^2 rank-one effects.

    Built from projections onto basis kets, real superpositions (j > k)
    and imaginary superpositions (j < k), renormalized by the inverse
    square root of their sum.
    """
    _require_size(d, "dimension", 2)
    eye = np.eye(d, dtype=complex)
    projections = {}
    for j in range(d):
        for k in range(d):
            if j == k:
                v = eye[:, [j]]
            elif j > k:
                v = (eye[:, [j]] + eye[:, [k]]) / np.sqrt(2)
            else:
                v = (eye[:, [j]] + 1j * eye[:, [k]]) / np.sqrt(2)
            projections[(j, k)] = outer(v)
    t = sum(projections.values())
    vals, vecs = eigh(t)
    inv_root = (vecs / np.sqrt(vals)) @ dag(vecs)
    outcomes = tuple(sorted(projections))
    effects = tuple(inv_root @ projections[o] @ inv_root for o in outcomes)
    return Povm(outcomes, effects)


def coarse_grain(a: Povm, nu: np.ndarray) -> Povm:
    """Post-process with a stochastic matrix: B(j) = sum_i nu[i, j] A(a_i), outcomes 0..m-1."""
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 2 or nu.shape[0] != len(a.outcomes):
        raise ValueError("stochastic matrix rows must match the POVM outcomes")
    if not (nu.min() >= -ATOL and np.max(np.abs(nu.sum(axis=1) - 1)) <= ATOL):
        raise ValueError("matrix is not stochastic (rows must be probability vectors)")
    return Povm(tuple(range(nu.shape[1])), np.einsum("ij,iab->jab", nu, a.effects))


def photon_counting(eps: float, cutoff: int) -> Povm:
    """Photon counting with detector efficiency eps on span{|0>..|K>}.

    Effects are diagonal with <k|N(n)|k> = C(k, n) eps^n (1-eps)^(k-n);
    on the truncated space they sum to the identity exactly.
    """
    _require_unit_interval(eps, "efficiency")
    _require_size(cutoff, "cutoff", 0)
    dim = cutoff + 1
    effs = np.zeros((dim, dim, dim))
    for n in range(dim):
        for k in range(n, dim):
            effs[n, k, k] = comb(k, n) * eps**n * (1 - eps) ** (k - n)
    return Povm(tuple(range(dim)), effs)


def efficiency_coarse_matrix(eps1: float, eps2: float, cutoff: int) -> np.ndarray:
    """Stochastic matrix turning the eps2 counter into the eps1 counter.

    mu[k, n] = C(k, n) eps1^n eps2^(-k) (eps2 - eps1)^(k - n); requires
    eps1 <= eps2 (otherwise the coarse-graining is impossible).
    """
    if not 0 < eps1 <= eps2 <= 1:
        raise ValueError("coarse-graining impossible: need 0 < eps1 <= eps2 <= 1")
    _require_size(cutoff, "cutoff", 0)
    dim = cutoff + 1
    mu = np.zeros((dim, dim))
    for k in range(dim):
        for n in range(k + 1):
            mu[k, n] = comb(k, n) * eps1**n * (eps2 - eps1) ** (k - n) / eps2**k
    return mu


def mean_variance(a: Povm, rho) -> tuple[float, float]:
    """Mean and variance of a real-outcome observable in a state."""
    try:
        xs = np.array([float(x) for x in a.outcomes])
    except (TypeError, ValueError) as err:
        raise ValueError("outcome labels must parse as real numbers") from err
    p = outcome_distribution(a, rho)
    mean = float((xs * p).sum())
    var = float(((xs - mean) ** 2 * p).sum())
    return mean, var


def sharp_operator(a: Povm) -> np.ndarray:
    """Selfadjoint operator sum_j x_j A(x_j) of a real observable."""
    xs = [float(x) for x in a.outcomes]
    return (np.array(xs)[:, None, None] * a.effects).sum(axis=0)


def commuting_joint(a, b) -> Povm:
    """Four-outcome joint observable of two commuting effects.

    Effects are {AB, (I-A)B, A(I-B), (I-A)(I-B)} with outcomes 1..4;
    the margins {1, 3} and {1, 2} recover A and B.
    """
    am, bm = _effect_matrix(a), _effect_matrix(b)
    ab = am @ bm
    if not _within(np.max(np.abs(ab - bm @ am)), ATOL, ab):
        raise ValueError("effects do not commute; no joint observable is constructed")
    eye = np.eye(am.shape[0], dtype=complex)
    prods = [ab, (eye - am) @ bm, am @ (eye - bm), (eye - am) @ (eye - bm)]
    return Povm((1, 2, 3, 4), prods)


# Repeatability hinges on exact unit eigenvalues; detection uses a looser
# threshold than the global tolerance because roundoff perturbs spectra.
UNIT_EIGENVALUE_TOL = 1e-7


def has_unit_eigenvalue(e: np.ndarray) -> bool:
    """True when the largest eigenvalue of an effect is 1 within UNIT_EIGENVALUE_TOL."""
    h = _require_hermitian(_effect_matrix(e), ATOL, "effect")
    return bool(abs(np.linalg.eigvalsh(h).max() - 1) < UNIT_EIGENVALUE_TOL)


def stern_gerlach(direction) -> Povm:
    """Ideal two-outcome qubit observable along a unit Bloch direction."""
    sig = _sigma_dot(_unit_directions(direction))
    up = (np.eye(2, dtype=complex) + sig) / 2
    down = (np.eye(2, dtype=complex) - sig) / 2
    return Povm((1, -1), (up, down))
