"""Quantum operations and channels.

Four interchangeable representations (Kraus, Choi, chi-matrix, affine),
CPTP certification, Stinespring dilations, conjugate and dual maps,
channel distances, fixed points, the qubit normal form and a family of
named constructors.

The functions that take a map (``apply``, ``compose``, ``to_choi``,
``certify``, ``to_chi``, ``to_affine``, ``sup_distance``,
``process_fidelity``, ``kraus_equivalent``) read a ``KrausChannel`` or a
``ChoiMatrix``, and raise TypeError for anything else; ``chi_to_kraus`` and
``affine_to_choi`` convert a ``ChiMatrix`` and an ``AffineRep``.  A map that
is not completely positive, such as the transposition, is a ``ChoiMatrix``
too.  A Kraus stack of r < n = d_in * d_out operators, a KrausChannel's
own or the one ``to_choi`` keeps, is read as the factor F of d_in * Omega = F F^dag
(``_choi_factor``): ``certify``, ``process_fidelity`` and ``to_chi`` form no n x n matrix.

Choi convention: Omega = (E (x) I)[P+] with the map acting on the FIRST
tensor factor; the chi-normalized matrix is Phi = d * Omega.

Internal forms: ``certify``, ``to_chi``, ``process_fidelity`` and
``from_choi`` read the Kraus factor or Omega.  Where a product or the affine
form needs it, ``_superop`` forms the superoperator matrix S acting on
row-major vectorized operators, vec(X)[i*d + j] = X[i, j], so
vec(E(X)) = S vec(X) and a Kraus list gives S = sum_k A_k (x) conj(A_k).
S and the Choi matrix hold the same numbers in a different index order:
S[(a, b), (j, k)] = d_in * Omega[(a, j), (b, k)] (the "reshuffle"; M.-D. Choi,
Linear Algebra Appl. 10, 285 (1975)); ``_superop_to_choi`` reads a product S
back as a ChoiMatrix.

Basis coordinates: one read-only stack I, E_1, ..., E_{d^2-1}
(``states._operator_stack``; the Paulis at d = 2) is the operator basis of
every map.  With G its columns vec(I), vec(E_j) (``states._operator_basis``),
chi = G^dag Phi G / d in the default basis G / sqrt(d), and the affine matrix
[[1, 0], [t, T]] = G^dag S G / d.  The qubit maps r -> diag(lmbda) r + t are
read through ``affine_to_choi``, so their Choi matrices share the (E (x) I)
order above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ATOL,
    NumericError,
    _eig_tol,
    _frozen_copy,
    _frozen_stack,
    _herm,
    _kraus_columns,
    _min_eig,
    _prepare_kraus,
    _probe_kraus,
    _require_size,
    _require_unit_interval,
    _seesaw,
    _within,
    asarray,
    basis_ket,
    complete_unitary,
    dag,
    eigh,
    is_unitary,
    partial_trace,
    partial_transpose,
    swap_operator,
    tensor,
    trace_norm,
)
from .rand import random_kets
from .states import (PAULIS, State, _as_matrix, _axis_direction, _operator_basis, _operator_stack,
                     _sigma_dot)


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

# Each carrier holds read-only copies of its arrays and compares by identity
# (the rule beside ``linalg._frozen_copy``).

@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CP map T -> sum_k A_k T A_k^dag; ``kraus_ops`` is one read-only (n, d_out, d_in) stack."""

    kraus_ops: np.ndarray
    in_dim: int = field(init=False)
    out_dim: int = field(init=False)

    def __post_init__(self):
        stack = _frozen_stack(self.kraus_ops, "Kraus operator",
                              "at least one Kraus operator is required", "(n, d_out, d_in)")
        object.__setattr__(self, "kraus_ops", stack)
        object.__setattr__(self, "out_dim", stack.shape[1])
        object.__setattr__(self, "in_dim", stack.shape[2])

    def normalization(self) -> np.ndarray:
        rows = self.kraus_ops.reshape(-1, self.in_dim)  # A_1, A_2, ... stacked vertically
        return dag(rows) @ rows

    def is_trace_preserving(self, tol: float = ATOL) -> bool:
        return _is_identity(_marginal(self, "A"), self.in_dim, tol)

    def is_unital(self, tol: float = ATOL) -> bool:
        return _is_identity(_marginal(self, "B"), self.in_dim, tol)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Omega = (E (x) I)[P+]; PSD iff the map is completely positive.

    One that ``to_choi`` builds from a ``KrausChannel`` also keeps that
    channel's read-only Kraus stack, read through ``_choi_factor``.
    """

    matrix: np.ndarray
    in_dim: int
    out_dim: int
    _kraus: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _require_size(self.in_dim, "dimension", 1)
        _require_size(self.out_dim, "dimension", 1)
        m = _frozen_copy(self.matrix, "Choi matrix", (self.out_dim * self.in_dim,) * 2)
        object.__setattr__(self, "matrix", m)

    def min_eigenvalue(self) -> float:
        if _choi_factor(self) is not None:
            return 0.0  # rank Omega <= r < n
        return _min_eig(self.matrix)

    def is_cp(self, tol: float = ATOL) -> bool:
        return _is_cp(self, self.min_eigenvalue(), tol)


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Channel coefficients in an orthonormal operator basis; PSD, trace d.

    ``basis`` holds read-only views of one (n, d, d) stack, ``matrix`` is n x n.
    """

    matrix: np.ndarray
    basis: tuple

    def __post_init__(self):
        ops = _frozen_stack(self.basis, "chi basis operator", "a chi matrix needs a basis",
                            "(n, d, d)")
        object.__setattr__(self, "matrix", _frozen_copy(self.matrix, "chi matrix", (len(ops),) * 2))
        object.__setattr__(self, "basis", tuple(ops))


@dataclass(frozen=True, eq=False)
class AffineRep:
    """Bloch-space action r -> T r + t of a trace-preserving map; T and t are real."""

    T: np.ndarray
    t: np.ndarray
    dim: int

    def __post_init__(self):
        _require_size(self.dim, "dimension", 1)
        n = self.dim**2 - 1
        object.__setattr__(self, "T", _frozen_copy(self.T, "T", (n, n), float))
        object.__setattr__(self, "t", _frozen_copy(self.t, "t", (n,), float))


# ---------------------------------------------------------------------------
# Action and conversions
# ---------------------------------------------------------------------------

def _reshuffle(m: np.ndarray, a: int, b: int, c: int, e: int) -> np.ndarray:
    """Swap the middle indices: m[(i, j), (k, l)] -> out[(i, k), (j, l)].

    With dims (d_out, d_out, d_in, d_in) this takes S to d_in * Omega;
    with (d_out, d_in, d_out, d_in) it takes Omega back to S / d_in.
    """
    return m.reshape(a, b, c, e).transpose(0, 2, 1, 3).reshape(a * c, b * e)


def _kraus_gram(ch: KrausChannel) -> np.ndarray:
    """d_in * Omega = sum_k vec(A_k) vec(A_k)^dag, one product of the flattened stack."""
    v = ch.kraus_ops.reshape(len(ch.kraus_ops), -1)
    return v.T @ v.conj()


def _kraus_stack(ch) -> np.ndarray | None:
    """A KrausChannel's own stack, the one a ChoiMatrix kept from ``to_choi``, or None."""
    return ch.kraus_ops if isinstance(ch, KrausChannel) else getattr(ch, "_kraus", None)


def _choi_factor(ch) -> np.ndarray | None:
    """F with d_in * Omega = F F^dag, the columns vec(A_k) of the stack a
    KrausChannel or a ChoiMatrix carries (``_kraus_stack``), when it holds
    r < n = d_in * d_out operators; else None.

    Then rank Omega <= r < n, and the nonzero spectrum of d_in * Omega is that
    of the r x r Gram matrix F^dag F (M.-D. Choi, Linear Algebra Appl. 10,
    285 (1975)), so no n x n matrix is formed.  A dense ChoiMatrix and r >= n
    are read as the n x n matrix.
    """
    ops = _kraus_stack(ch)
    if ops is None or len(ops) >= ch.in_dim * ch.out_dim:
        return None
    return ops.reshape(len(ops), -1).T


def _dims(ch) -> tuple[int, int]:
    """(in_dim, out_dim) of a map carrier; TypeError for any other object."""
    if not isinstance(ch, (KrausChannel, ChoiMatrix)):
        raise TypeError(f"cannot read a map from {type(ch).__name__}: pass a KrausChannel "
                        "or ChoiMatrix (chi_to_kraus and affine_to_choi convert)")
    return ch.in_dim, ch.out_dim


def _superop(ch) -> np.ndarray:
    """Row-major superoperator matrix S of a KrausChannel or ChoiMatrix."""
    d_in, d_out = _dims(ch)
    m = _kraus_gram(ch) if isinstance(ch, KrausChannel) else d_in * ch.matrix
    return _reshuffle(m, d_out, d_in, d_out, d_in)


def _superop_to_choi(s: np.ndarray, d_in: int, d_out: int) -> ChoiMatrix:
    """The ChoiMatrix of the map with superoperator s: Omega = reshuffle(s) / d_in."""
    return ChoiMatrix(_reshuffle(s, d_out, d_out, d_in, d_in) / d_in, d_in, d_out)


def _kraus_action(ops: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k A_k t A_k^dag over a stack of Kraus operators."""
    return (ops @ t @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def apply(ch, t) -> np.ndarray:
    """Apply a KrausChannel or ChoiMatrix to an operator."""
    t = _as_matrix(t)
    if t.shape != (_dims(ch)[0],) * 2:
        raise ValueError("operator dimension does not match the map input")
    if isinstance(ch, KrausChannel):
        return _kraus_action(ch.kraus_ops, t)
    return (_superop(ch) @ t.reshape(-1)).reshape(ch.out_dim, ch.out_dim)


def compose(outer_map, inner_map) -> KrausChannel | ChoiMatrix:
    """Map applying ``inner_map`` first, then ``outer_map``: a KrausChannel of
    two KrausChannels, else the ChoiMatrix of the superoperator product."""
    if _dims(outer_map)[0] != _dims(inner_map)[1]:
        raise ValueError(f"cannot compose a map on dimension {outer_map.in_dim} "
                         f"after one into dimension {inner_map.out_dim}")
    if isinstance(outer_map, KrausChannel) and isinstance(inner_map, KrausChannel):
        ops = outer_map.kraus_ops[:, None] @ inner_map.kraus_ops[None]  # outer-major pairs
        return KrausChannel(ops.reshape(-1, outer_map.out_dim, inner_map.in_dim))
    s = _superop(outer_map) @ _superop(inner_map)
    return _superop_to_choi(s, inner_map.in_dim, outer_map.out_dim)


def tensor_channels(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    ops = np.einsum("jab,kce->jkacbe", ch1.kraus_ops, ch2.kraus_ops)
    return KrausChannel(ops.reshape(-1, ch1.out_dim * ch2.out_dim, ch1.in_dim * ch2.in_dim))


def to_choi(ch) -> ChoiMatrix:
    """Choi matrix Omega = (E (x) I)[P+] of a KrausChannel; a ChoiMatrix is returned as is."""
    d_in, d_out = _dims(ch)
    if isinstance(ch, ChoiMatrix):
        return ch
    choi = ChoiMatrix(_kraus_gram(ch) / d_in, d_in, d_out)
    object.__setattr__(choi, "_kraus", ch.kraus_ops)  # read-only already: no copy
    return choi


def from_choi(choi: ChoiMatrix, tol: float = ATOL) -> KrausChannel:
    """Kraus operators from a PSD Choi matrix (count = numerical Choi rank).

    Through a kept factor F (``_choi_factor``) the eigenpairs come from the
    r x r Gram matrix F^dag F, and the operators are the columns F w_k.
    """
    f = _choi_factor(choi)
    if f is not None:
        vals, w = eigh(dag(f) @ f)
        cols = _kraus_columns(vals, w, tol, f)
    else:
        vals, vecs = eigh(choi.in_dim * choi.matrix)
        _require_cp(choi, vals.min() / choi.in_dim, tol)
        cols = _kraus_columns(vals, vecs, tol)
    return KrausChannel(cols.T.reshape(-1, choi.out_dim, choi.in_dim))


# Channel properties, each decided once here on the marginals of the
# trace-one Choi matrix: tr_A Omega = N^T / d_in with N = sum_k A_k^dag A_k,
# and tr_B Omega = E(I) / d_in.  Every check is invariant under transposition.

def _is_cp(choi: ChoiMatrix, min_eig: float, tol: float) -> bool:
    """Omega >= 0, given its smallest eigenvalue ``min_eig``."""
    return _within(-min_eig, tol, choi.matrix)


def _require_cp(choi: ChoiMatrix, min_eig: float, tol: float) -> None:
    """Raise ValueError unless _is_cp(choi, min_eig, tol)."""
    if not _is_cp(choi, min_eig, tol):
        raise ValueError(f"not completely positive: Choi eigenvalue {min_eig:.3e}")


def _marginal(ch, side: str) -> np.ndarray:
    """tr_side Omega, from the Kraus stack the map carries (``_kraus_stack``) if any."""
    ops = _kraus_stack(ch)
    if ops is None:
        return partial_trace(to_choi(ch).matrix, ch.out_dim, ch.in_dim, side=side)
    a = ops if side == "A" else ops.conj().transpose(0, 2, 1)
    rows = a.reshape(-1, a.shape[2])  # sum_k a_k^dag a_k = rows^dag rows
    return dag(rows) @ rows / ch.in_dim


def _is_identity(x: np.ndarray, d_in: int, tol: float) -> bool:
    """A marginal x = _marginal(ch, side) equals I / d_in: N = I (side "A",
    trace-preserving) or E(I) = I (side "B", unital)."""
    return _within(np.max(np.abs(x - np.eye(len(x)) / d_in)), tol, x)


def certify(ch, tol: float = ATOL) -> dict:
    """Report {cp, tp, unital, trace_decreasing, choi_min_eig} for a map; through a
    Kraus factor (``_choi_factor``) choi_min_eig is exactly 0.0, rank Omega < n."""
    if (f := _choi_factor(ch)) is None:
        ch = to_choi(ch)  # a KrausChannel's stack is kept: its marginals stay on it
        min_eig, scale = _min_eig(ch.matrix), ch.matrix
    else:
        min_eig, scale = 0.0, f  # 0 <= tol passes on any finite scale, as on Omega's
    n = _marginal(ch, "A")
    return {
        "cp": _within(-min_eig, tol, scale),
        "tp": _is_identity(n, ch.in_dim, tol),
        "unital": _is_identity(_marginal(ch, "B"), ch.in_dim, tol),
        "trace_decreasing": _within(np.linalg.eigvalsh(n).max(), tol, n, offset=1 / ch.in_dim),
        "choi_min_eig": min_eig,
    }


def to_chi(ch, basis=None) -> ChiMatrix:
    """chi-matrix B^dag Phi B over an orthonormal operator basis.

    B stacks the vectorized basis operators as columns; the default basis
    is {I, E_1, ...} / sqrt(d), i.e. B = G / sqrt(d).  Through a Kraus
    factor F (``_choi_factor``), Phi = F F^dag and chi = C C^dag with the
    n x r matrix C = B^dag F.
    """
    d, d_out = _dims(ch)
    if d_out != d:
        raise ValueError("chi representation requires equal input and output dimensions")
    if (f := _choi_factor(ch)) is None:
        choi = to_choi(ch)
        if not isinstance(ch, KrausChannel):
            _require_cp(choi, choi.min_eigenvalue(), ATOL)
    if basis is None:
        basis = _operator_stack(d) / np.sqrt(d)
    ops = asarray(basis)
    b = ops.reshape(len(ops), -1).T
    if np.max(np.abs(dag(b) @ b - np.eye(len(ops)))) > 1e-9:
        raise ValueError("operator basis is not Hilbert-Schmidt orthonormal")
    if f is not None:
        return ChiMatrix((c := dag(b) @ f) @ dag(c), ops)
    return ChiMatrix(dag(b) @ (d * choi.matrix) @ b, ops)


def chi_to_kraus(chi: ChiMatrix, tol: float = ATOL) -> KrausChannel:
    vals, vecs = eigh(chi.matrix)
    basis = np.asarray(chi.basis)
    ops = basis.reshape(len(basis), -1).T @ _kraus_columns(vals, vecs, tol)
    return KrausChannel(ops.T.reshape(-1, *basis.shape[1:]))


def _affine_matrix(s: np.ndarray, d: int) -> np.ndarray:
    """Real [[1, 0], [t, T]] = G^dag S G / d of a trace-preserving superoperator S."""
    g = _operator_basis(d)
    return (dag(g) @ s @ g).real / d


def to_affine(ch) -> AffineRep:
    """Bloch-space affine form of a trace-preserving map.

    Since tr[E_j X] = (G^dag vec(X))_j, the block matrix G^dag S G / d holds
    t_j = tr[E_j E(I)] / d in its first column and T_jk = tr[E_j E(E_k)] / d.
    """
    if not _is_identity(_marginal(ch, "A"), ch.in_dim, ATOL):
        raise ValueError("affine representation requires a trace-preserving map")
    if ch.in_dim != ch.out_dim:
        raise ValueError("affine representation requires equal dimensions")
    m = _affine_matrix(_superop(ch), ch.in_dim)
    return AffineRep(m[1:, 1:], m[1:, 0], ch.in_dim)


def affine_apply(aff: AffineRep, r: np.ndarray) -> np.ndarray:
    return aff.T @ np.asarray(r, dtype=float) + aff.t


def affine_to_choi(aff: AffineRep) -> ChoiMatrix:
    """Choi matrix of the map defined by a Bloch affine action."""
    d = aff.dim
    g = _operator_basis(d)
    m = np.eye(d * d)  # [[1, 0], [t, T]]
    m[1:, 0], m[1:, 1:] = aff.t, aff.T
    # E(X) = [tr(X) (I + t.E) + sum_jk T_jk tr(E_k X) E_j] / d
    return _superop_to_choi(g @ m @ dag(g) / d, d, d)


def _require_same_dims(ch1, ch2) -> None:
    if _dims(ch1) != _dims(ch2):
        raise ValueError("channels must share dimensions")


def kraus_equivalent(k1: KrausChannel, k2: KrausChannel, tol: float = 1e-8,
                     return_witness: bool = False):
    """Whether two Kraus lists define the same map (Choi uniqueness).

    When they do and a witness is requested, the partial-isometry matrix
    u with A_j = sum_k u[j, k] B_k is recovered by least squares.
    """
    _require_same_dims(k1, k2)
    same = trace_norm(to_choi(k1).matrix - to_choi(k2).matrix) < tol
    if not return_witness:
        return same
    if not same:
        return False, None
    a, b = (k.kraus_ops.reshape(len(k.kraus_ops), -1) for k in (k1, k2))
    return True, a @ np.linalg.pinv(b)


def stinespring(ch: KrausChannel, tol: float = ATOL):
    """(env_dim, U, env_ket) with tr_E[U (rho (x) |e0><e0|) U^dag] = E(rho).

    The isometry phi -> sum_k A_k phi (x) |k> is completed to a unitary
    by one Householder QR (``linalg.complete_unitary``): its complete Q
    supplies an orthonormal basis of the isometry's orthogonal complement.
    """
    if not ch.is_trace_preserving(tol):
        raise ValueError("Stinespring dilation implemented for trace-preserving channels")
    ops = ch.kraus_ops[np.abs(ch.kraus_ops).max(axis=(1, 2)) > tol]
    if not len(ops):
        raise ValueError("channel has no nonzero Kraus operators")
    return len(ops), _dilation_unitary(ops, len(ops)), basis_ket(len(ops), 0)


def _dilation_unitary(ops: np.ndarray, probe_dim: int) -> np.ndarray:
    """Unitary U on system (x) probe with U (phi (x) |0>) = sum_m B_m phi (x) |m>.

    Each B_m maps C^d into C^d (x) C^tag with tag = probe_dim / len(ops);
    probe index (t, m) is t * len(ops) + m.  Columns b * probe_dim (system
    b, probe 0) carry the isometry bit for bit; the rest, in order, are the
    complement columns of one Householder QR of it (``complete_unitary``).
    A stack that is not an isometry raises NumericError.
    """
    n, d = len(ops), ops.shape[2]
    v = ops.reshape(n, d, probe_dim // n, d).transpose(1, 2, 0, 3).reshape(d * probe_dim, d)
    full = complete_unitary(v)
    first = np.arange(d * probe_dim) % probe_dim == 0  # a mask: columns in ascending order
    u = np.empty_like(full)
    u[:, first] = full[:, :d]
    u[:, ~first] = full[:, d:]
    if not is_unitary(u, 1e-8):
        raise NumericError("failed to complete the dilation unitary")
    return u


def dilation_apply(env_dim: int, u: np.ndarray, env_ket: np.ndarray, rho) -> np.ndarray:
    """tr_E[U (rho (x) |e><e|) U^dag], as the action of the read-out Kraus operators."""
    m = _as_matrix(rho)
    return _kraus_action(_probe_kraus(u, m.shape[0], env_ket.reshape(env_dim)), m)


def conjugate(ch: KrausChannel) -> KrausChannel:
    """Complementary (system-to-environment) channel of a TP channel.

    E'(T) = sum_jk tr[R_j T R_k^dag] |j><k| over the environment basis.
    """
    if not ch.is_trace_preserving():
        raise ValueError("conjugate channel implemented for trace-preserving channels")
    ops = ch.kraus_ops[np.abs(ch.kraus_ops).max(axis=(1, 2)) > ATOL]
    # B_m maps |phi> to the environment vector with components <m|R_j phi>,
    # i.e. B_m[j, :] = row m of R_j.
    return KrausChannel(ops.transpose(1, 0, 2))


def random_unitary_conjugate(pairs) -> KrausChannel:
    """Conjugate of a random-unitary channel via its controlled-unitary dilation.

    With the environment prepared in the diagonal mixed state diag(p),
    the system-to-environment map is the contraction onto diag(p): the
    environment learns nothing about the input.
    """
    probs = _probability_vector([p for p, _ in pairs], "weights must form a probability vector")
    d = asarray(pairs[0][1]).shape[0]
    keep = probs > 0
    cols = np.eye(len(probs))[:, keep] * np.sqrt(probs[keep])  # sqrt(p_j) |j>
    return KrausChannel(_prepare_kraus(cols, np.eye(d)))


def _probability_vector(weights, message: str) -> np.ndarray:
    """Float weights, or ValueError(message) unless >= 0 with sum 1 (NaN fails)."""
    p = np.asarray(weights, dtype=float)
    if p.ndim != 1 or not (p >= 0).all() or not abs(p.sum() - 1) <= 1e-12:
        raise ValueError(message)
    return p


def heisenberg_dual(ch: KrausChannel) -> KrausChannel:
    """Dual map E_*(T) = sum_k A_k^dag T A_k in the same Kraus carrier."""
    return KrausChannel(ch.kraus_ops.conj().transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def transposition_map(d: int) -> ChoiMatrix:
    """Transposition: positive but not completely positive.  Its superoperator
    is the swap, and the swap is its own reshuffle, so Omega = SWAP / d."""
    return ChoiMatrix(swap_operator(d) / d, d, d)


def make(kind: str, **params):
    """Named channel constructors.

    kinds: ``depolarizing(d, p)``, ``pauli(q0, q1, q2, q3)``,
    ``random_unitary(pairs)``, ``contraction(xi)``, ``transposition(d)``
    (returned as a non-CP ``ChoiMatrix``), ``phase_damping(eta, axis)``.
    """
    if kind == "depolarizing":
        d, p = params["d"], params["p"]
        _require_size(d, "dimension", 1)
        _require_unit_interval(p, "depolarizing strength")
        ops = np.concatenate([np.eye(d)[None], _operator_stack(d) / np.sqrt(d)])
        weights = np.r_[1 - p, np.full(d * d, p / d)]  # the terms of weight 0 are dropped
        return KrausChannel((np.sqrt(weights)[:, None, None] * ops)[weights > 0])
    if kind == "pauli":
        message = "pauli channel needs a probability 4-vector"
        q = _probability_vector(params["q"], message)
        if len(q) != 4:
            raise ValueError(message)
        return KrausChannel((np.sqrt(q)[:, None, None] * _operator_stack(2))[q > 0])
    if kind == "random_unitary":
        pairs = params["pairs"]
        _probability_vector([p for p, _ in pairs], "weights must form a probability vector")
        return KrausChannel([np.sqrt(p) * asarray(u) for p, u in pairs if p > 0])
    if kind == "contraction":
        xi = _as_matrix(params["xi"])
        ops = _prepare_kraus(_kraus_columns(*eigh(xi), ATOL), np.eye(len(xi)))
        return KrausChannel(ops)  # A_jk = sqrt(lambda_j) v_j e_k^T
    if kind == "transposition":
        return transposition_map(params["d"])
    if kind == "phase_damping":
        eta = params["eta"]
        _require_unit_interval(eta, "damping parameter")
        n = _axis_direction(params.get("axis", "z"))
        ops = np.array([np.sqrt(eta) * PAULIS[0], np.sqrt(1 - eta) * _sigma_dot(n)])
        return KrausChannel(ops[[eta > 0, eta < 1]])
    raise ValueError(f"unknown channel kind {kind!r}")


def unitary_channel(u) -> KrausChannel:
    u = asarray(u)
    if not is_unitary(u):
        raise ValueError("operator is not unitary")
    return KrausChannel((u,))


# ---------------------------------------------------------------------------
# Qubit specifics
# ---------------------------------------------------------------------------

def qubit_diagonal_choi(lmbda, t) -> np.ndarray:
    """Chi-normalized Choi matrix Phi = 2 Omega of the qubit map r -> diag(lmbda) r + t."""
    return 2 * affine_to_choi(AffineRep(np.diag(lmbda), t, 2)).matrix


def qubit_cp_check(lmbda, t) -> dict:
    """Complete-positivity verdict for the diagonal qubit affine map.

    The PSD test on the map's Choi matrix is authoritative; the three
    closed-form inequalities are reported as diagnostics only (the third
    is known to be unreliable in print).  ``choi`` and ``choi_min_eig``
    are in the chi-normalized scale Phi = 2 Omega.
    """
    choi = affine_to_choi(AffineRep(np.diag(lmbda), t, 2))  # checks shapes and finiteness
    min_eig = choi.min_eigenvalue()
    l1, l2, l3 = (float(x) for x in lmbda)
    t1, t2, t3 = (float(x) for x in t)
    lam2 = l1 * l1 + l2 * l2 + l3 * l3
    tnorm2 = t1 * t1 + t2 * t2 + t3 * t3
    ineqs = {
        "sum": (l1 + l2) ** 2 <= (1 + l3) ** 2 - t3 * t3 + 1e-12,
        "difference": (l1 - l2) ** 2 <= (1 - l3) ** 2 - t3 * t3 + 1e-12,
        "quartic": (1 - lam2 - tnorm2) ** 2 + 1e-12
        >= 4
        * (
            l1 * l1 * (t1 * t1 + t2 * t2)
            + l2 * l2 * (t2 * t2 + t3 * t3)
            + l3 * l3 * (t3 * t3 + t1 * t1)
            - 2 * l1 * l2 * l3
        ),
    }
    return {
        "cp": _is_cp(choi, min_eig, ATOL),
        "choi_min_eig": 2 * min_eig,
        "choi": 2 * choi.matrix,
        "inequalities": ineqs,
    }


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) action of a qubit unitary on Bloch vectors."""
    u = asarray(u)
    return _affine_matrix(tensor(u, u.conj()), 2)[1:, 1:]


def su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """Qubit unitary with det 1 whose Bloch action is the given proper rotation.

    The channel rho -> U rho U^dag has the Choi matrix vec(U) vec(U)^dag / 2,
    so U is sqrt(2) times its top unit eigenvector, up to a phase.  Scaling
    to det U = 1 fixes the phase up to a sign: U and -U act alike, and
    either may be returned.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.isfinite(r).all() or not abs(np.linalg.det(r) - 1) <= 1e-6:
        raise ValueError("matrix is not a proper rotation")
    u = eigh(2 * affine_to_choi(AffineRep(r, np.zeros(3), 2)).matrix)[1][:, 0].reshape(2, 2)
    u = u / np.sqrt(np.linalg.det(u))
    if not np.max(np.abs(bloch_rotation(u) - r)) <= 1e-7:
        raise NumericError("no qubit unitary reproduces the rotation")
    return u


def qubit_normal_form(ch):
    """Decompose a qubit TP channel as sigma_U . D . sigma_V.

    Returns (U, lmbda, t, V) where D acts on Bloch vectors as
    r -> diag(lmbda) r + t, |lmbda| are the singular values of the
    affine block and lmbda_1 lmbda_2 lmbda_3 = det T.
    """
    if ch.in_dim != 2 or ch.out_dim != 2:
        raise ValueError("normal form is defined for qubit channels")
    aff = to_affine(ch)
    w1, sing, w2t = np.linalg.svd(aff.T)
    lam = sing.copy()
    if np.linalg.det(w1) < 0:
        w1[:, 2] *= -1
        lam[2] *= -1
    w2 = w2t.T
    if np.linalg.det(w2) < 0:
        w2[:, 2] *= -1
        lam[2] *= -1
    r_u = w1
    r_v = w2.T
    t = r_u.T @ aff.t
    u = su2_from_rotation(r_u)
    v = su2_from_rotation(r_v)
    return u, lam, t, v


# ---------------------------------------------------------------------------
# Distances, fixed points, structure checks
# ---------------------------------------------------------------------------

def _dual_of_sign(s: np.ndarray, d_out: int, x: np.ndarray):
    """Ascending eigendecomposition of Phi^*(sign Phi(X)) over a stack of Hermitian X.

    Q = sign(Phi(X)) attains ||Phi(X)||_1 = tr[Q Phi(X)] = tr[Phi^*(Q) X], S(Phi) = s.
    """
    n, d_in = x.shape[:2]
    vals, vecs = np.linalg.eigh((x.reshape(n, -1) @ s.T).reshape(n, d_out, d_out))
    q = (vecs * np.sign(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    return np.linalg.eigh((q.reshape(n, -1) @ s.conj()).reshape(n, d_in, d_in))


def _sup_step(s: np.ndarray, d_out: int, kets: np.ndarray):
    """One see-saw step of max_psi ||Delta(psi psi^dag)||_1 / 2, S(Delta) = s.

    Q = sign(Delta(psi psi^dag)) is the best sign operator for psi, and the
    top eigenvector of the dual Delta^*(Q) the best ket for Q.  The top
    eigenvalue / 2 is reported: a lower bound at the new ket and at least
    the value at the old one.
    """
    vals, vecs = _dual_of_sign(s, d_out, kets[:, :, None] * kets[:, None, :].conj())
    return vecs[:, :, -1], vals[:, -1] / 2


def _contraction_step(s: np.ndarray, d_out: int, pairs: np.ndarray):
    """One see-saw step of max ||Phi(psi psi^dag - phi phi^dag)||_1 / 2, pairs (n, 2, d).

    The best orthogonal pair for Q is the top and bottom eigenvector of
    Phi^*(Q); half their eigenvalue gap is reported, as in _sup_step.
    """
    psi, phi = pairs[:, 0], pairs[:, 1]
    x = psi[:, :, None] * psi[:, None, :].conj() - phi[:, :, None] * phi[:, None, :].conj()
    vals, vecs = _dual_of_sign(s, d_out, x)
    return np.stack([vecs[:, :, -1], vecs[:, :, 0]], axis=1), (vals[:, -1] - vals[:, 0]) / 2


def sup_distance(ch1, ch2, rng=0, restarts: int = 64):
    """Maximal trace distance between channel outputs over pure states.

    The objective is convex on the state space, so the supremum is
    attained on pure states.  A see-saw of at most 1000 exact steps runs
    from ``restarts`` seeded random kets, a slow start also trying an
    extrapolated jump (``linalg._seesaw``, as in every search on it), so
    the value never decreases and is a lower bound on the supremum.
    Assumes Hermiticity-preserving maps.  Returns (value, argmax ket).
    """
    _require_same_dims(ch1, ch2)
    d = ch1.in_dim
    s = _superop(ch1) - _superop(ch2)
    (kets,) = random_kets((d,), restarts, rng)
    psi = _seesaw(lambda k: _sup_step(s, ch1.out_dim, k), kets, 1000, 1e-12)[1]
    psi = psi.reshape(-1, 1)
    rho = psi @ dag(psi)
    return trace_norm(apply(ch1, rho) - apply(ch2, rho)) / 2, psi


def noise_distance(ch, rng=0, restarts: int = 64) -> float:
    """Distance from the identity channel (Delta_sup)."""
    ident = KrausChannel((np.eye(ch.in_dim, dtype=complex),))
    return sup_distance(ch, ident, rng, restarts)[0]


def fixed_point(ch: KrausChannel, rho0, max_iter: int = 20000, tol: float = ATOL) -> State:
    """Iterate a TP channel until the trace-norm increment drops below tol."""
    if not ch.is_trace_preserving():
        raise ValueError("fixed-point iteration requires a trace-preserving channel")
    rho = _as_matrix(rho0)
    for _ in range(max_iter):
        nxt = apply(ch, rho)
        if trace_norm(nxt - rho) < tol:
            return State(_herm(nxt))
        rho = nxt
    raise NumericError(f"no fixed point found within {max_iter} iterations "
                       "(the channel may not be strictly contractive)")


def contraction_factor(ch: KrausChannel, sample_pairs: int = 50, rng=0) -> float:
    """Trace-norm contraction coefficient of a TP channel, as a lower bound.

    For a trace-preserving map the coefficient sup ||Phi(rho - sigma)||_1 /
    ||rho - sigma||_1 is attained on orthogonal pure states: it equals
    max_{psi perp phi} ||Phi(psi psi^dag - phi phi^dag)||_1 / 2 (M. B. Ruskai,
    Rev. Math. Phys. 6, 1147 (1994)).  A see-saw of at most 1000 exact
    steps runs from ``sample_pairs`` seeded random ket pairs, a slow start
    also trying an extrapolated jump (``linalg._seesaw``), so the value
    never decreases and is a lower bound on the coefficient.
    """
    d = ch.in_dim
    s = _superop(ch)
    pairs = np.stack(random_kets((d, d), sample_pairs, rng), axis=1)
    return _seesaw(lambda x: _contraction_step(s, ch.out_dim, x), pairs, 1000, 1e-12)[0]


def is_pure_decoherence(ch: KrausChannel, basis, tol: float = 1e-8) -> bool:
    """True iff every Kraus operator commutes with every basis projector."""
    kets = asarray(basis).reshape(len(basis), -1)
    projs = kets[:, :, None] * kets[:, None, :].conj()
    a = ch.kraus_ops[:, None]  # every Kraus operator against every projector / operator
    if np.max(np.abs(a @ projs - projs @ a)) > tol:
        return False
    if np.max(np.abs(a @ ch.kraus_ops - ch.kraus_ops @ a)) > tol:
        raise AssertionError("pure decoherence Kraus operators must commute")
    return True


# ---------------------------------------------------------------------------
# Entanglement breaking
# ---------------------------------------------------------------------------

def _takagi(a: np.ndarray):
    """Autonne-Takagi decomposition a = U diag(s) U^T of a symmetric matrix.

    The real embedding b = [[Re a, Im a], [Im a, -Re a]] has the spectrum
    +-(singular values of a).  An eigenvector (x, y) of b for s > 0 gives the
    column u = x + iy with a conj(u) = s u, and those columns are orthonormal,
    as (-y, x) is the eigenvector for -s; ``complete_unitary`` adds the
    columns for s = 0.
    """
    a = asarray(a)
    n = a.shape[0]
    b = np.block([[a.real, a.imag], [a.imag, -a.real]])
    vals, vecs = np.linalg.eigh(_herm(b))
    pos = np.flatnonzero(vals > _eig_tol(vals, 1e-10))
    pos = pos[np.argsort(-vals[pos], kind="stable")]  # descending, ties in eigh's order
    u = complete_unitary(vecs[:n, pos] + 1j * vecs[n:, pos])
    s = np.zeros(n)
    s[:len(pos)] = vals[pos]
    if not _within(np.max(np.abs(u @ np.diag(s) @ u.T - a)), 1e-7, a):
        raise NumericError("Takagi factorization residual too large")
    return u, s


def _close_polygon(lengths: np.ndarray) -> np.ndarray:
    """Unit phases w with lengths[0] w0 = sum_j lengths[j] w_j (j >= 1)."""
    l1, l2, l3, l4 = lengths
    if l1 <= 1e-14:
        return np.ones(4, dtype=complex)
    m = min(max(l1 - l2, l3 - l4), l3 + l4)

    def safe_arccos(x):
        return float(np.arccos(np.clip(x, -1.0, 1.0)))

    if l2 > 1e-14:
        beta = safe_arccos((l1 * l1 + l2 * l2 - m * m) / (2 * l1 * l2))
    else:
        beta = 0.0
    w2 = np.exp(1j * beta)
    mvec = l1 - l2 * w2
    mu = abs(mvec)
    delta = np.angle(mvec) if mu > 1e-14 else 0.0
    if mu <= 1e-14:
        w3, w4 = 1.0 + 0j, -1.0 + 0j
    elif l3 <= 1e-14:
        w3, w4 = 1.0 + 0j, np.exp(1j * delta)
    elif l4 <= 1e-14:
        w3, w4 = np.exp(1j * delta), 1.0 + 0j
    else:
        a3 = safe_arccos((mu * mu + l3 * l3 - l4 * l4) / (2 * mu * l3))
        w3 = np.exp(1j * (delta + a3))
        rest = mvec - l3 * w3
        w4 = rest / abs(rest) if abs(rest) > 1e-14 else 1.0 + 0j
    w = np.array([1.0, w2, w3, w4], dtype=complex)
    residual = l1 * w[0] - (l2 * w[1] + l3 * w[2] + l4 * w[3])
    if not _within(abs(residual), 1e-7, lengths[:1]):  # scaled by l1 = max length
        raise NumericError("polygon closure failed; state may be entangled")
    return w


def product_decomposition_2x2(omega: np.ndarray, tol: float = 1e-9):
    """Decompose a separable two-qubit state into pure product terms.

    Uses the concurrence-optimal decomposition: for a separable state
    the optimal decomposition consists of product vectors.  Returns a
    list of subnormalized kets z_k with omega = sum_k z_k z_k^dag and
    each z_k of Schmidt rank one.
    """
    yy = tensor(PAULIS[2], PAULIS[2])
    subnorm = _kraus_columns(*eigh(omega), tol)  # one zero column for omega = 0
    tau = dag(subnorm) @ yy @ subnorm.conj()
    u, lam = _takagi((tau + tau.T) / 2)
    x = np.zeros((4, 4), dtype=complex)
    x[:, :len(lam)] = subnorm @ u  # x_i = sum_j u[j, i] z_j, zero-padded to four
    lam = np.append(lam, np.zeros(4 - len(lam)))
    concurrence = lam[0] - lam[1:].sum()
    if concurrence > 1e-7:
        raise ValueError(f"state is entangled (concurrence {concurrence:.3e})")
    y = x * np.exp(1j * np.angle(_close_polygon(lam)) / 2) * [1, 1j, 1j, 1j]
    hadamard = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
    )
    z = y @ hadamard  # z_k = sum_j hadamard[k, j] y_j; the matrix is symmetric
    return [z[:, [k]] for k in range(4) if np.linalg.norm(z[:, k]) > 1e-9]


def is_entanglement_breaking(ch: KrausChannel, tol: float = ATOL) -> dict:
    """Entanglement-breaking verdict {yes | no | inconclusive} via the Choi state.

    NPPT Choi means not entanglement breaking.  For qubit-to-qubit
    channels PPT is also sufficient and a measure-and-prepare form
    ``[(F_n, xi_n), ...]`` is extracted from a separable decomposition
    of the Choi state.
    """
    choi = to_choi(ch)
    d_in, d_out = choi.in_dim, choi.out_dim
    pt = partial_transpose(choi.matrix, d_out, d_in)
    min_eig = _min_eig(pt)
    if not _within(-min_eig, tol, choi.matrix):
        return {"verdict": "no", "pt_min_eig": min_eig, "measure_prepare": None}
    if d_in == 2 and d_out == 2:
        kets = product_decomposition_2x2(choi.matrix)
        pairs = []
        for z in kets:
            p = float(np.linalg.norm(z) ** 2)
            mat = z.reshape(2, 2)
            left, sing, right_h = np.linalg.svd(mat)
            out_ket = left[:, [0]]
            # The in-side factor enters the effect transposed: F_n = d p beta^T.
            in_ket = dag(right_h)[:, [0]]
            effect = d_in * p * (in_ket @ dag(in_ket))
            state = State(out_ket @ dag(out_ket))
            pairs.append((effect, state))
        return {"verdict": "yes", "pt_min_eig": min_eig, "measure_prepare": pairs}
    return {"verdict": "inconclusive", "pt_min_eig": min_eig, "measure_prepare": None}


def measure_prepare_channel(pairs) -> ChoiMatrix:
    """Channel rho -> sum_n xi_n tr[rho F_n] from measure-and-prepare data,
    as Omega = sum_n xi_n (x) F_n^T / d_in."""
    d_in = pairs[0][0].shape[0]
    d_out = _as_matrix(pairs[0][1]).shape[0]
    omega = np.zeros((d_out * d_in,) * 2, dtype=complex)
    for effect, xi in pairs:
        omega += np.kron(_as_matrix(xi), effect.T)
    return ChoiMatrix(omega / d_in, d_in, d_out)


def process_fidelity(ch1, ch2) -> float:
    """State fidelity of the trace-one Choi states of two channels.

    When both are read through Kraus factors (``_choi_factor``), Omega_i =
    F_i F_i^dag / d_i, the fidelity tr|sqrt(Omega_1) sqrt(Omega_2)| is
    ||F_1^dag F_2||_1 / sqrt(d_1 d_2): one r_1 x r_2 SVD, no n x n matrix and
    no square root of a rounding-level eigenvalue.
    """
    from .discrimination import fidelity

    f1, f2 = _choi_factor(ch1), _choi_factor(ch2)
    if f1 is None or f2 is None or len(f1) != len(f2):
        return fidelity(to_choi(ch1).matrix, to_choi(ch2).matrix)
    return trace_norm(dag(f1) @ f2) / np.sqrt(ch1.in_dim * ch2.in_dim)
