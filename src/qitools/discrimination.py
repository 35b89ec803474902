"""State distances and optimal two-state discrimination schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (ATOL, _eig_tol, _require_hermitian, dag, eigh, inner, matrix_rank, outer,
                     psd_sqrt, trace_norm, unit_ket)
from .observables import Povm
from .states import _as_matrix


@dataclass(frozen=True, eq=False)
class DiscriminationResult:
    """Measurement plus bookkeeping for a two-state discrimination scheme.

    Each outcome label is what the scheme concludes: "1", "2" and, for an
    unambiguous scheme, "?".  An unambiguous scheme never errs, so its ``p_error`` is its
    inconclusive probability, 1 - ``p_success``.
    """

    povm: Povm
    p_success: float
    p_error: float


def prob_distances(p, q) -> tuple[float, float, float]:
    """(max difference, Kolmogorov distance, Bhattacharyya coefficient)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("probability vectors must have the same length")
    for v in (p, q):
        if not (abs(v.sum() - 1) <= 1e-7 and v.min() >= -1e-12):
            raise ValueError("inputs must be probability vectors")
    diff = np.abs(p - q)
    return float(diff.max()), float(diff.sum() / 2), float(np.sqrt(p * q).sum())


def _state_pair(rho1, rho2, stacks: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The matrices, or kets, of two states on one space; with ``stacks`` either may be
    an (n, d, d) stack."""
    m1, m2 = _as_matrix(rho1), _as_matrix(rho2)
    if m1.shape[-2:] != m2.shape[-2:] or not (stacks or m1.shape == m2.shape):
        raise ValueError(f"states must share a dimension, got shapes {m1.shape} and {m2.shape}")
    return m1, m2


def _require_prior(eta: float) -> None:
    if not 0 < eta < 1:
        raise ValueError("prior must satisfy 0 < eta < 1")


def trace_distance(rho1, rho2) -> float | np.ndarray:
    """(1/2) tr|rho1 - rho2|; two equal-shape (n, d, d) stacks give one distance per member."""
    m1, m2 = _state_pair(rho1, rho2)
    h = _require_hermitian(m1 - m2, ATOL, "rho1 - rho2")
    dist = np.abs(np.linalg.eigvalsh(h)).sum(axis=-1) / 2
    return dist if dist.ndim else float(dist)


def fidelity(rho1, rho2) -> float | np.ndarray:
    """tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) = tr|sqrt(rho1) sqrt(rho2)|, in [0, 1].

    Computed as the trace norm of the product of square roots, which is
    numerically stable for rank-deficient states.  Either argument may be a
    stack ``(n, d, d)``; the result is then one fidelity per member (pairing
    members when both are stacks), from one stacked square root per stack.
    """
    m1, m2 = _state_pair(rho1, rho2, stacks=True)
    return trace_norm(psd_sqrt(m1) @ psd_sqrt(m2))


def helstrom(rho1, rho2, eta: float = 0.5) -> DiscriminationResult:
    """Minimum-error discrimination of two states with prior (eta, 1-eta).

    The "1" effect projects onto the positive part of eta*rho1 -
    (1-eta)*rho2; zero eigenvalues are split half-half between the two
    outcomes.
    """
    _require_prior(eta)
    m1, m2 = _state_pair(rho1, rho2)
    gap = eta * m1 - (1 - eta) * m2
    vals, vecs = eigh(gap)
    cut = _eig_tol(vals, ATOL)
    weights = (vals > cut) + 0.5 * (abs(vals) <= cut)  # 1 above the cut, 1/2 within it
    c1 = (vecs * weights) @ dag(vecs)
    c2 = np.eye(len(c1)) - c1
    p_err = float(eta * np.trace(m1 @ c2).real + (1 - eta) * np.trace(m2 @ c1).real)
    return DiscriminationResult(Povm(("1", "2"), (c1, c2)), 1 - p_err, p_err)


def _span_projector(kets) -> np.ndarray:
    stack = np.hstack(kets)
    q = np.linalg.qr(stack)[0][:, :matrix_rank(stack)]
    return q @ dag(q)


def _unambiguous(rho1, rho2, c1, c2, eta: float) -> DiscriminationResult:
    """The scheme with conclusive effects c1, c2 and "?" effect I - c1 - c2, on rho1, rho2."""
    cq = np.eye(len(c1)) - c1 - c2
    p_succ = float(eta * np.trace(rho1 @ c1).real + (1 - eta) * np.trace(rho2 @ c2).real)
    p_inc = float(eta * np.trace(rho1 @ cq).real + (1 - eta) * np.trace(rho2 @ cq).real)
    return DiscriminationResult(Povm(("1", "2", "?"), (c1, c2, cq)), p_succ, p_inc)


def unambiguous_two_pure(psi1, psi2, eta: float = 0.5) -> DiscriminationResult:
    """Optimal unambiguous discrimination of two pure states.

    Conclusive effects are c (Q - P_other) with c = 1 / (1 + |overlap|)
    and Q the projector onto span{psi1, psi2}; conclusive outcomes are
    error-free and, for eta = 1/2, the success probability is
    1 - |<psi1|psi2>|.
    """
    _require_prior(eta)
    v1, v2 = _state_pair(unit_ket(psi1), unit_ket(psi2))
    overlap = abs(inner(v1, v2))
    if overlap > 1 - 1e-12:
        raise ValueError("states identical - nothing to discriminate")
    q_perp = _span_projector([v1, v2])
    c = 1 / (1 + overlap)
    rho1, rho2 = outer(v1), outer(v2)
    return _unambiguous(rho1, rho2, c * (q_perp - rho2), c * (q_perp - rho1), eta)


def unambiguous_mixture_povm(psi1, psi2, q: float, eta: float = 0.5) -> DiscriminationResult:
    """Suboptimal unambiguous scheme mixing the two single-state identifiers.

    C(1) = q (I - rho2), C(2) = (1-q)(I - rho1), C(?) = I - C(1) - C(2)
    = q rho2 + (1-q) rho1.  For q = eta = 1/2 the success probability equals
    (1 - tr[rho1 rho2]) / 2.
    """
    if not 0 < q < 1:
        raise ValueError("mixing weight must satisfy 0 < q < 1")
    _require_prior(eta)
    v1, v2 = _state_pair(unit_ket(psi1), unit_ket(psi2))
    rho1, rho2 = outer(v1), outer(v2)
    eye = np.eye(v1.shape[0])
    return _unambiguous(rho1, rho2, q * (eye - rho2), (1 - q) * (eye - rho1), eta)


def idp_bound(rho1, rho2, eta: float = 0.5) -> float:
    """Upper bound on unambiguous success: 1 - 2 sqrt(eta(1-eta)) tr|sqrt(rho1) sqrt(rho2)|.

    The cross term is the trace norm of the product of square roots (the
    fidelity); for a pure pair at even prior this is 1 - |<psi1|psi2>|.
    """
    _require_prior(eta)
    cross = fidelity(rho1, rho2)
    return float(1 - 2 * np.sqrt(eta * (1 - eta)) * cross)


def unambiguous_feasible(rho1, rho2) -> tuple[bool, bool]:
    """Which of the two states can be unambiguously identified.

    State 1 is identifiable iff its support is not contained in the
    support of state 2 (and symmetrically).
    """
    m1, m2 = _state_pair(rho1, rho2)

    def support_cols(m):
        vals, vecs = eigh(m)
        return vecs[:, vals > _eig_tol(vals, ATOL)]

    s1, s2 = support_cols(m1), support_cols(m2)

    def contained(inner_cols, outer_cols):
        joint = np.hstack([outer_cols, inner_cols])
        return matrix_rank(joint) == matrix_rank(outer_cols)

    return (not contained(s1, s2), not contained(s2, s1))
