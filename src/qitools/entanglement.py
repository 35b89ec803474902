"""Bipartite structure: Schmidt decomposition, PPT and reduction criteria,
witnesses, the Werner family, twirling, majorization, entangled fraction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .linalg import (ATOL, _bipartite, _frozen_copy, _lowest_eigh, _min_eig, _require_finite,
                     _require_hermitian, _require_size, _require_unit_interval, _seesaw, _within,
                     asarray, eigh, ket, outer, partial_trace, partial_transpose, swap_operator,
                     tensor)
from .rand import _gram_schmidt, _haar_normals, haar_unitaries, random_kets, rng_from
from .states import State, _sigma_dot, _unit_directions, maximally_entangled_ket


@dataclass(frozen=True, eq=False)
class BipartiteState(State):
    """A ``State`` on a dA*dB space with its tensor factor dimensions dA and dB.

    The inherited ``from_ket`` and ``maximally_mixed`` raise TypeError, as they take
    no factor dimensions: build ``BipartiteState(State.from_ket(psi), dA, dB)``."""

    dA: int
    dB: int

    def __post_init__(self):
        super().__post_init__()
        _require_size(self.dA, "dimension", 1)
        _require_size(self.dB, "dimension", 1)
        if self.dA * self.dB != self.dim:
            raise ValueError("factor dimensions do not multiply to the state dimension")

    def reduced(self, side: str) -> State:
        """Reduced state of subsystem A or B."""
        keep = "B" if side == "A" else "A"
        return State(partial_trace(self.matrix, self.dA, self.dB, side=keep))


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt coefficients (descending, squares sum to one) and local bases."""

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           _frozen_copy(self.coefficients, "Schmidt coefficients", dtype=float))
        object.__setattr__(self, "left", _frozen_copy(self.left, "Schmidt basis"))
        object.__setattr__(self, "right", _frozen_copy(self.right, "Schmidt basis"))

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    @property
    def squares(self) -> np.ndarray:
        return self.coefficients**2

    def is_entangled(self) -> bool:
        return self.rank >= 2 and bool(self.squares[1] > ATOL)

    def reconstruct(self) -> np.ndarray:
        return ((self.left * self.coefficients) @ self.right.T).reshape(-1, 1)


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian operator, not PSD, with nonnegative product-state expectation."""

    matrix: np.ndarray
    certified_min_product_value: float
    min_eigenvalue: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_copy(self.matrix, "witness"))
        if self.certified_min_product_value < -1e-7:
            raise ValueError("operator is negative on a product state; not a witness")
        if _within(-self.min_eigenvalue, ATOL, self.matrix):
            raise ValueError("operator is PSD and can never detect entanglement")


def schmidt(psi, dA: int, dB: int, tol: float = ATOL) -> SchmidtData:
    """Schmidt decomposition of a bipartite unit ket via the coefficient SVD."""
    v = asarray(psi).reshape(-1)
    if v.shape != (dA * dB,):
        raise ValueError("ket length must be dA*dB")
    if abs(np.linalg.norm(v) - 1) > 1e-8:
        raise ValueError("ket must be normalized")
    mat = v.reshape(dA, dB)
    left, sing, right_h = np.linalg.svd(mat, full_matrices=False)
    keep = sing > tol
    # psi = sum_j s_j e_j (x) f_j needs the UNconjugated rows of right_h.
    return SchmidtData(sing[keep], left[:, keep], right_h.T[:, keep])


def ppt(rho: BipartiteState, tol: float = ATOL) -> tuple[bool, float]:
    """(is PPT, minimal eigenvalue of the partial transpose on B).

    rho^{T_A} = (rho^{T_B})^T has the same spectrum, so one side decides.
    """
    pt = partial_transpose(rho.matrix, rho.dA, rho.dB)
    min_eig = _min_eig(pt)
    return _within(-min_eig, tol, pt), min_eig


def peres_horodecki(rho: BipartiteState) -> str:
    """Exact separability verdict in 2x2, 2x3 and 3x2."""
    if (rho.dA, rho.dB) not in {(2, 2), (2, 3), (3, 2)}:
        raise ValueError("the PPT criterion is conclusive only for 2x2 and 2x3; use ppt()")
    is_ppt, _ = ppt(rho)
    return "separable" if is_ppt else "entangled"


def reduction_criterion(rho: BipartiteState, tol: float = ATOL):
    """(detected, min eig of I (x) rho_B - rho, min eig of rho_A (x) I - rho)."""
    m = rho.matrix
    rb = rho.reduced("B").matrix
    ra = rho.reduced("A").matrix
    op1 = tensor(np.eye(rho.dA), rb) - m
    op2 = tensor(ra, np.eye(rho.dB)) - m
    e1, e2 = _min_eig(op1), _min_eig(op2)
    return not (_within(-e1, tol, op1) and _within(-e2, tol, op2)), e1, e2


def chsh_operator(a, a_prime, b, b_prime) -> np.ndarray:
    """A (x) (B + B') + A' (x) (B - B') with A = a . sigma, from one stacked Pauli contraction."""
    n = _unit_directions([a, a_prime, b, b_prime])
    s = _sigma_dot([n[0], n[1], n[2] + n[3], n[2] - n[3]])  # A, A', B +- B'
    kron = s[:2, :, None, :, None] * s[2:, None, :, None, :]  # A (x) (B + B'), A' (x) (B - B')
    return (kron[0] + kron[1]).reshape(4, 4)


def chsh_value(rho: BipartiteState, a, a_prime, b, b_prime) -> float:
    """2 - |<B_CHSH>|; a negative value certifies entanglement.

    The absolute value is applied to the scalar expectation, making the
    test basis-independent for the chosen measurement directions.
    """
    if (rho.dA, rho.dB) != (2, 2):
        raise ValueError("the CHSH test addresses two-qubit states")
    bell = chsh_operator(a, a_prime, b, b_prime)
    return float(2 - abs(np.trace(rho.matrix @ bell).real))


def chsh_witness(a, a_prime, b, b_prime, sign: int = 1, rng=0) -> Witness:
    """Linear witness 2 I + sign * B_CHSH, certified on product kets."""
    w = 2 * np.eye(4, dtype=complex) + sign * chsh_operator(a, a_prime, b, b_prime)
    return certify_witness(w, 2, 2, rng=rng)


def certify_witness(w: np.ndarray, dA: int, dB: int, rng=0, restarts: int = 100) -> Witness:
    """Certify a finite Hermitian candidate witness on C^dA (x) C^dB over product kets."""
    w = _frozen_copy(w, "witness", (dA * dB, dA * dB))
    _require_hermitian(w, ATOL, "witness")
    value = _min_product_expectation(w, dA, dB, rng_from(rng), restarts)
    return Witness(w, value, _min_eig(w))


def witness_evaluate(w: Witness, rho: BipartiteState):
    """(tr[W rho], verdict); the verdict never claims separability."""
    if not isinstance(w, Witness):
        raise ValueError("witness must be certified; use certify_witness")
    _bipartite(w.matrix, rho.dA, rho.dB)  # the witness must act on the state's space
    value = float(np.trace(w.matrix @ rho.matrix).real)
    return value, ("entangled" if value < -ATOL else "inconclusive")


def _mef_step(rho: np.ndarray, shifted: np.ndarray, u: np.ndarray):
    """One see-saw step of f(U) = vec(U)^dag rho vec(U) / d over unitaries.

    U <- polar factor of reshape(shifted vec U) maximizes the bilinear
    form of the PSD shift rho - lambda_min I at U, so f never decreases;
    without the shift, states near I/d^2 crawl.  Reports f at the new U.
    The next unitaries keep the layout of ``u`` (d x d matrices or rows
    vec(U)), and a positive scale of ``u`` does not change them.
    """
    n, d = len(u), isqrt(len(rho))
    w, _, vh = np.linalg.svd((u.reshape(n, -1) @ shifted.T).reshape(n, d, d))
    nxt = w @ vh
    vecs = nxt.reshape(n, -1)
    return nxt.reshape(u.shape), np.einsum("ni,ij,nj->n", vecs.conj(), rho, vecs).real / d


def max_entangled_fraction(rho: BipartiteState, rng=0, restarts: int = 64) -> float:
    """max_U <psi+| (U^dag (x) I) rho (U (x) I) |psi+>, by seeded optimization.

    A value above 1/d certifies entanglement; PPT states never exceed
    1/d.  As (U (x) I)|psi+> = vec(U)/sqrt(d), a see-saw of at most 1000
    exact steps from ``restarts`` seeded Haar unitaries maximizes
    vec(U)^dag rho vec(U) / d; the result is a lower bound on the maximum.
    The points are the rows vec(U), so a slow start's extrapolated jump
    (``linalg._seesaw``) aligns the global phase of U.
    """
    if rho.dA != rho.dB:
        raise ValueError("maximally entangled fraction needs equal local dimensions")
    d = rho.dA
    m = rho.matrix
    shifted = m - np.linalg.eigvalsh(m)[0] * np.eye(d * d)
    starts = haar_unitaries(d, restarts, rng).reshape(restarts, d * d)
    return _seesaw(lambda u: _mef_step(m, shifted, u), starts, 1000, 1e-12)[0]


def maximally_entangled_state(d: int) -> BipartiteState:
    return BipartiteState(State.from_ket(maximally_entangled_ket(d)), d, d)


def sym_antisym(d: int):
    """(P_plus, P_minus, V_swap): symmetric/antisymmetric projectors and swap."""
    _require_size(d, "dimension", 2)
    v = swap_operator(d)
    eye = np.eye(d * d, dtype=complex)
    return (eye + v) / 2, (eye - v) / 2, v


def werner(d: int, mu: float) -> BipartiteState:
    """Werner state mu P+/d+ + (1-mu) P-/d-."""
    _require_unit_interval(mu, "the Werner parameter")
    p_plus, p_minus, _ = sym_antisym(d)
    d_plus = d * (d + 1) // 2
    d_minus = d * (d - 1) // 2
    m = mu * p_plus / d_plus + (1 - mu) * p_minus / d_minus
    return BipartiteState(m, d, d)


def werner_report(d: int, mu: float, tol: float = ATOL) -> dict:
    """All standard verdicts for a Werner state in one dictionary."""
    w = werner(d, mu)
    _, _, v_swap = sym_antisym(d)
    swap_expectation = float(np.trace(v_swap @ w.matrix).real)
    is_ppt, min_eig = ppt(w, tol=tol)
    detected, e1, e2 = reduction_criterion(w, tol=tol)
    return {
        "d": d,
        "mu": mu,
        "swap_expectation": swap_expectation,
        "separable": mu >= 0.5,
        "entangled": mu < 0.5,
        "ppt": is_ppt,
        "pt_min_eig": min_eig,
        "reduction_detects": detected,
        "reduction_min_eigs": (e1, e2),
    }


def twirl(x: np.ndarray, d: int | None = None) -> np.ndarray:
    """Project onto the U (x) U commutant: span{P+, P-}."""
    if d is None:
        d = round(np.size(x) ** 0.25)  # x is d^2 x d^2; other input fails the shape rule
    x = _bipartite(x, d, d).reshape(d * d, d * d)
    _require_finite(x, "operator")
    p_plus, p_minus, _ = sym_antisym(d)
    d_plus = d * (d + 1) // 2
    d_minus = d * (d - 1) // 2
    return (
        np.trace(x @ p_plus) / d_plus * p_plus
        + np.trace(x @ p_minus) / d_minus * p_minus
    )


# Haar samples per chunk in twirl_monte_carlo, and full chunks per block.
# The chunk size fixes the seeded draw stream: each chunk takes one normal
# block, real parts then imaginary parts, so another size gives other
# unitaries.  Up to _TWIRL_BLOCK full chunks are drawn with one
# (k, 2, _TWIRL_BATCH, d, d) call, which holds the same numbers as k
# chunk-sized draws, and run through the Gram-Schmidt kernel together; a
# last partial chunk is drawn on its own.  U (x) U is formed one chunk at a
# time, so its memory does not grow with the block.
_TWIRL_BATCH = 256
_TWIRL_BLOCK = 8


def twirl_monte_carlo(x: np.ndarray, d: int, samples: int, rng=0) -> np.ndarray:
    """Haar Monte-Carlo estimate of the twirl, for cross-checking."""
    x = _bipartite(x, d, d).reshape(d * d, d * d)
    _require_finite(x, "operator")
    _require_size(samples, "samples", 1)
    rng = rng_from(rng)
    full, rest = divmod(samples, _TWIRL_BATCH)
    blocks = [(min(_TWIRL_BLOCK, full - c), _TWIRL_BATCH) for c in range(0, full, _TWIRL_BLOCK)]
    blocks += [(1, rest)] if rest else []
    acc = np.zeros_like(x)
    for chunks, n in blocks:
        q = _gram_schmidt(_haar_normals(d, n, rng, chunks))  # q[j, i, m] = U_m[i, j]
        for start in range(0, chunks * n, n):
            qc = q[:, :, start:start + n]
            # uu[(j, l), (i, k), m] = (U_m (x) U_m)[(i, k), (j, l)], samples last,
            # from one broadcast product.  The rows (i, k, m) of uu.T are the rows
            # of every U_m (x) U_m, so one GEMM gives y[(i, k), (m, c)] =
            # ((U_m (x) U_m) x)[(i, k), c], and a second with the stacked
            # (U_m (x) U_m)^dag sums over m.
            uu = (qc[:, None, :, None, :] * qc[None, :, None, :, :]).reshape(d * d, d * d, -1)
            y = (uu.reshape(d * d, -1).T @ x).reshape(d * d, -1)
            acc += y @ uu.transpose(2, 0, 1).conj().reshape(-1, d * d)
    return acc / samples


def majorization_convertible(psi, phi, dA: int, dB: int) -> bool:
    """Whether psi can be turned into phi by LOCC (majorization criterion).

    True iff every partial sum of psi's descending Schmidt squares is
    bounded by phi's, up to 1e-10.
    """
    lam_psi = schmidt(psi, dA, dB, tol=0).squares
    lam_phi = schmidt(phi, dA, dB, tol=0).squares
    n = max(len(lam_psi), len(lam_phi))
    a = np.zeros(n)
    b = np.zeros(n)
    a[: len(lam_psi)] = np.sort(lam_psi)[::-1]
    b[: len(lam_phi)] = np.sort(lam_phi)[::-1]
    return bool(np.all(np.cumsum(a) <= np.cumsum(b) + 1e-10))


# ---------------------------------------------------------------------------
# Tiles unextendible product basis
# ---------------------------------------------------------------------------

def _tile(a, b) -> np.ndarray:
    return tensor(ket(a), ket(b))


def tiles_upb() -> list[np.ndarray]:
    """The five tiles product kets forming an unextendible product basis in 3x3."""
    s2 = 1 / np.sqrt(2)
    s3 = 1 / np.sqrt(3)
    e = np.eye(3)
    return [
        _tile(e[0], s2 * (e[0] - e[1])),
        _tile(e[2], s2 * (e[1] - e[2])),
        _tile(s2 * (e[0] - e[1]), e[2]),
        _tile(s2 * (e[1] - e[2]), e[0]),
        _tile(s3 * (e[0] + e[1] + e[2]), s3 * (e[0] + e[1] + e[2])),
    ]


def upb_projector() -> np.ndarray:
    return _upb_projector().copy()


@lru_cache(maxsize=None)
def _upb_projector() -> np.ndarray:
    """Read-only projector onto the tiles span, built once per process."""
    return _frozen_copy(sum(outer(k) for k in tiles_upb()), "tiles projector")


def upb_state() -> BipartiteState:
    """Normalized complement of the tiles span: a PPT entangled state."""
    pi = _upb_projector()
    return BipartiteState((np.eye(9) - pi) / 4, 3, 3)


def _min_product_step(t: np.ndarray, phi: np.ndarray):
    """One alternating step of min <psi (x) phi| op |psi (x) phi>, t = op as (dA, dB, dA, dB).

    With one factor fixed the objective is a smallest-eigenvector problem
    for the other.  Returns the next phi and minus the new expectation.
    """
    n, dA, dB = len(phi), t.shape[0], t.shape[1]
    t_b = t.transpose(1, 3, 0, 2).reshape(dB * dB, dA * dA)
    mat_a = ((phi.conj()[:, :, None] * phi[:, None, :]).reshape(n, -1) @ t_b).reshape(n, dA, dA)
    psi = _lowest_eigh(mat_a)[1]
    t_a = t.transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    mat_b = ((psi.conj()[:, :, None] * psi[:, None, :]).reshape(n, -1) @ t_a).reshape(n, dB, dB)
    vals, vecs = _lowest_eigh(mat_b)
    return vecs, -vals


def _min_product_expectation(op: np.ndarray, dA: int, dB: int, rng, restarts: int) -> float:
    """min over product kets of <psi (x) phi| op |psi (x) phi>.

    Alternating minimization from seeded random product kets, at most 100
    steps per start, a slow start also trying an extrapolated jump
    (``linalg._seesaw``); a start stops once a step gains at most 1e-12.
    """
    t = _bipartite(op, dA, dB)
    _, phi = random_kets((dA, dB), restarts, rng)
    return -_seesaw(lambda p: _min_product_step(t, p), phi, 100, 1e-12)[0]


def upb_epsilon(rng=0, restarts: int = 200) -> float:
    """Minimal product-ket overlap with the tiles projector (positive)."""
    return _min_product_expectation(_upb_projector(), 3, 3, rng_from(rng), restarts)


def upb_witness(rng=0, restarts: int = 200) -> Witness:
    """Witness Pi - eps P_phi detecting the tiles PPT entangled state.

    phi is a deterministic unit vector in the range of the UPB state, and
    eps the seeded alternating-minimization estimate; then
    tr[rho_upb W] = -eps/4 < 0 while product expectations stay >= 0.
    """
    pi = _upb_projector()
    eps = upb_epsilon(rng=rng, restarts=restarts)
    vals, vecs = eigh(np.eye(9) - pi)
    phi = vecs[:, [0]]  # deterministic: first basis vector of the complement
    return certify_witness(pi - eps * outer(phi), 3, 3, rng, restarts)
