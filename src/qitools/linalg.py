"""Dense complex linear algebra used throughout the toolkit.

Matrices are plain complex ``numpy`` arrays; kets are ``(d, 1)`` column
vectors and inner products are conjugate-linear in the first argument.
"""

from __future__ import annotations

import numpy as np

# Global absolute tolerance, at which constructors validate.  Every check on
# an operator a accepts an error up to tol * max(1, ||a||_2) (_within; rank
# cuts on a spectrum: _eig_tol), so large matrices are not judged more
# strictly than small ones.  The SVD for ||a||_2 runs only when needed.
ATOL = 1e-9


class NumericError(RuntimeError):
    """An iterative or numerical procedure failed to deliver a result."""


def _scale(a: np.ndarray) -> float:
    norm = np.linalg.norm(a, 2) if a.size else 0.0
    return max(1.0, float(norm))


def _eig_tol(vals: np.ndarray, tol: float) -> float:
    """tol * _scale(h) from the eigenvalues of a Hermitian h: ||h||_2 = max |lambda|."""
    return tol * max(1.0, float(np.abs(vals).max(initial=0.0)))


def _within(err: float | np.ndarray, tol: float, a: np.ndarray, offset: float = 0.0) -> bool:
    """err <= offset + tol * _scale(a), computing the norm only when needed.

    For an (n, d, d) stack ``a``, ``err`` holds one error per member: every member
    must pass, and each that fails the unscaled test, not only the first, is scaled.
    _scale(a) >= 1 and IEEE rounding is monotone, so for tol >= 0 the
    unscaled test err <= offset + tol already implies the scaled one.
    Non-finite ``a`` always takes the scaled path, so its errors (an SVD
    that does not converge on NaN entries) are raised as before.
    """
    if a.ndim == 3:  # the unscaled test once for the whole stack
        if tol >= 0 and (err <= offset + tol).all() and np.isfinite(a).all():
            return True
        ok = (err <= offset + tol) & np.isfinite(a).all(axis=(1, 2)) & (tol >= 0)
        return all([_within(err[k], tol, a[k], offset) for k in np.flatnonzero(~ok)])
    if tol >= 0 and err <= offset + tol and np.isfinite(a).all():
        return True
    return bool(err <= offset + tol * _scale(a))


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first non-finite entry of ``a`` by flat index.

    A stack of matrices (``a.ndim == 3``) names the matrix too: "what k[i]".
    """
    if np.isfinite(a).all():
        return
    i = int(np.flatnonzero(~np.isfinite(a))[0])
    z = a.flat[i]
    if a.ndim == 3:
        k, i = divmod(i, a[0].size)
        what = f"{what} {k}"
    raise ValueError(f"{what}[{i}]: entries must be finite, got [{z.real}, {z.imag}]")


def _is_integer(value) -> bool:
    """Whether value is an int or numpy integer, not a bool: what a size or a code must be."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_size(value, name: str, least: int) -> None:
    """Raise ValueError unless a size is an int or numpy integer (no bool) of at least ``least``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = {0: "a non-negative integer", 1: "a positive integer"}.get(least)
        raise ValueError(f"{name} must be {bound or f'at least {least}'}")


def _probability_vector(weights, message: str, size: int | None = None) -> np.ndarray:
    """Float weights, or ValueError(message) unless >= 0 with sum 1 (NaN fails) and, when
    ``size`` is given, ``size`` of them."""
    p = np.asarray(weights, dtype=float)
    shaped = p.ndim == 1 and size in (None, len(p))
    if not (shaped and (p >= 0).all() and abs(p.sum() - 1) <= 1e-12):
        raise ValueError(message)
    return p


def _require_unit_interval(x, name: str) -> None:
    """Raise ValueError unless 0 <= x <= 1; NaN fails."""
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must lie in [0, 1]")


# How a carrier holds its arrays is decided here alone: a read-only array is a
# checked copy made by _frozen_copy or _frozen_stack, so the caller's arrays
# stay writable and the carrier's cannot change.  Every dataclass that holds an
# array, directly or through another carrier, is declared eq=False: equality is
# identity (x == x holds, an equal rebuild compares unequal) and every carrier
# is hashable, since an array has no single truth value and two operators can
# only agree within a tolerance.

def _frozen_copy(a, what: str, shape: tuple | None = None, dtype=complex,
                 finite: bool = False) -> np.ndarray:
    """Read-only copy of ``a``, checked to have ``shape`` (when given) and finite
    entries; ``finite=True`` when the caller has checked what ``a`` was formed from."""
    m = np.array(a, dtype=dtype)
    if shape is not None and m.shape != shape:
        raise ValueError(f"{what} shape does not match the declared dimensions")
    if not finite:
        _require_finite(m, what)
    m.flags.writeable = False
    return m


def _frozen_stack(ops, what: str, empty: str, layout: str) -> np.ndarray:
    """Read-only complex copy of a tuple, list or stack of matrices, checked to be
    a non-empty ``layout`` stack ("(n, d_out, d_in)") with finite entries.

    Errors name the matrices ``what`` ("Kraus operator" k[i]); ``empty`` is the
    message when there are none.
    """
    if isinstance(ops, (tuple, list)) and len({np.shape(a) for a in ops}) > 1:
        raise ValueError(f"{what}s must share a shape")
    stack = _frozen_copy(ops, what)
    if stack.shape[:1] == (0,):
        raise ValueError(empty)
    if stack.ndim != 3:
        raise ValueError(f"{what}s must form an {layout} stack, got shape {stack.shape}")
    return stack


def asarray(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def ket(entries) -> np.ndarray:
    """Column vector from a 1-d sequence of amplitudes (not normalized)."""
    return asarray(entries).reshape(-1, 1)


def unit_ket(entries) -> np.ndarray:
    """Normalized column vector."""
    v = ket(entries)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def inner(phi: np.ndarray, psi: np.ndarray) -> complex:
    """<phi|psi>, conjugate-linear in the first argument."""
    return complex((dag(phi) @ psi)[0, 0])


def outer(phi: np.ndarray, psi: np.ndarray | None = None) -> np.ndarray:
    """|phi><psi| (|phi><phi| if psi is omitted)."""
    if psi is None:
        psi = phi
    return np.asarray(phi) @ dag(psi)


def basis_ket(d: int, j: int) -> np.ndarray:
    v = np.zeros((d, 1), dtype=complex)
    v[j, 0] = 1.0
    return v


def is_hermitian(a: np.ndarray, tol: float = ATOL) -> bool:
    a = asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return _within(np.max(np.abs(a - dag(a))), tol, a)


def _herm(a: np.ndarray) -> np.ndarray:
    """The one Hermitian part (a + a^dag) / 2 of a matrix or stack; exact on a Hermitian a."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def _hermitian(a: np.ndarray, tol: float) -> np.ndarray | None:
    """_herm(a) if ``a`` (each member of an (n, d, d) stack) is Hermitian within tol, else None."""
    if a.ndim == 3 and a.shape[1] == a.shape[2]:
        errs = np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        ok = _within(errs, tol, a)
    else:
        ok = is_hermitian(a, tol)  # False for anything but a square matrix
    return _herm(a) if ok else None


def _require_hermitian(a: np.ndarray, tol: float, what: str) -> np.ndarray:
    """_hermitian(a, tol), or ValueError naming ``what``."""
    h = _hermitian(a, tol)
    if h is None:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return h


def _min_eig(a: np.ndarray) -> float:
    """The lowest eigenvalue of a's Hermitian part."""
    return float(np.linalg.eigvalsh(_herm(a)).min())


def _require_psd(vals: np.ndarray, tol: float, a: np.ndarray, what: str) -> None:
    """Raise ValueError unless the spectrum ``vals`` of a's Hermitian part
    clears the one PSD floor, lambda_min >= -tol * max(1, ||a||_2)."""
    low = vals.min()
    if not _within(-low, tol, a):
        floor = -tol * _scale(a)
        raise ValueError(f"{what} is not PSD: eigenvalue {low:.3e} below {floor:.3e}")


def is_psd(a: np.ndarray, tol: float = ATOL) -> bool:
    a = asarray(a)
    return is_hermitian(a, tol) and _within(-_min_eig(a), tol, a)


def is_unitary(a: np.ndarray, tol: float = ATOL) -> bool:
    a = asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return _within(np.max(np.abs(dag(a) @ a - np.eye(a.shape[0]))), tol, a)


def is_projection(a: np.ndarray, tol: float = ATOL) -> bool:
    a = asarray(a)
    return is_hermitian(a, tol) and _within(np.max(np.abs(a @ a - a)), tol, a)


def is_effect(a: np.ndarray, tol: float = ATOL) -> bool:
    """O <= a <= I within tol."""
    return _effect(asarray(a), tol) is not None


def _effect(a: np.ndarray, tol: float) -> np.ndarray | None:
    """_herm(a) when the matrix ``a`` is an effect, O <= a <= I within tol, else None."""
    h = _hermitian(a, tol) if a.ndim == 2 else None
    if h is None:
        return None
    evals = np.linalg.eigvalsh(h)
    ok = _within(-evals.min(), tol, a) and _within(evals.max(), tol, a, offset=1.0)
    return h if ok else None


def tensor(*ops) -> np.ndarray:
    """Kronecker product; the first factor indexes the coarse blocks."""
    out = asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, asarray(op))
    return out


def _by_side(side: str, a, b):
    """``a`` for side "A", ``b`` for side "B"."""
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    return a if side == "A" else b


def _bipartite(t: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """An operator on a dA*dB space as its (dA, dB, dA, dB) array, or ValueError."""
    _require_size(dA, "dimension", 1)
    _require_size(dB, "dimension", 1)
    if np.shape(t) != (dA * dB, dA * dB):
        raise ValueError(f"expected a {dA * dB} x {dA * dB} matrix, got {np.shape(t)}")
    return asarray(t).reshape(dA, dB, dA, dB)


def partial_trace(t: np.ndarray, dA: int, dB: int, side: str = "A") -> np.ndarray:
    """Trace out one tensor factor of an operator on a dA*dB space.

    ``side="A"`` returns the dB x dB operator tr_A[t]; ``side="B"`` the
    dA x dA operator tr_B[t].
    """
    return np.einsum(_by_side(side, "ijik->jk", "ijkj->ik"), _bipartite(t, dA, dB))


def partial_transpose(t: np.ndarray, dA: int, dB: int, side: str = "B") -> np.ndarray:
    """Blockwise transpose of one tensor factor of an operator on a dA*dB space."""
    r = _bipartite(t, dA, dB)
    return np.einsum(_by_side(side, "ijkl->kjil", "ijkl->ilkj"), r).reshape(dA * dB, dA * dB)


def swap_operator(d: int) -> np.ndarray:
    """V|j, k> = |k, j>; also the row-major superoperator of transposition."""
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


def eigh(t: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(values, vectors)`` with orthonormal eigenvector columns.
    Degenerate eigenspaces come with an arbitrary orthonormal basis.
    """
    t = asarray(t)
    _require_finite(t, "matrix")
    m = t if t.ndim == 2 else t.reshape(-1)  # flattened, a stack fails as a vector does
    vals, vecs = np.linalg.eigh(_require_hermitian(m, ATOL, "matrix"))  # freed before the copy
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def psd_sqrt(t: np.ndarray, tol: float = ATOL) -> np.ndarray:
    """Unique PSD square root; eigenvalues in [-tol*||t||, 0) are clamped.

    A stack ``(n, d, d)`` gives the stack of roots from one stacked
    eigendecomposition, and a matrix is run as a stack of one.  Each member is
    checked as a single matrix is, and the first that fails raises the
    single-matrix message.
    """
    t = asarray(t)
    _require_finite(t, "matrix")
    stack = t[None] if t.ndim == 2 else t  # any other shape fails the Hermitian check
    vals, vecs = np.linalg.eigh(_require_hermitian(stack, tol, "matrix"))
    order = np.argsort(vals, axis=-1)[:, ::-1]  # descending, as eigh orders them: it fixes the bits
    rows = np.arange(len(stack))[:, None]
    vals, vecs = vals[rows, order], vecs.swapaxes(1, 2)[rows, order].swapaxes(1, 2)
    vecs = np.ascontiguousarray(vecs)  # C order: the bits of the product below depend on it
    if not _within(-vals.min(axis=-1, initial=np.inf), tol, stack):
        for k in range(len(stack)):
            _require_psd(vals[k], tol, stack[k], "matrix")  # raises for the first member that fails
    vals = np.clip(vals, 0.0, None)
    roots = (vecs * np.sqrt(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    return roots[0] if t.ndim == 2 else roots


def polar(t: np.ndarray):
    """Polar decomposition t = v @ abs_t with abs_t = sqrt(t^dag t).

    ``v`` is unitary (hence a partial isometry); built from the SVD.
    """
    t = asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("polar decomposition requires a square matrix")
    u, s, wh = np.linalg.svd(t)
    return u @ wh, (dag(wh) * s) @ wh


def trace_norm(t: np.ndarray) -> float | np.ndarray:
    """Sum of the singular values; a stack ``(n, d, d)`` gives one per member."""
    s = np.linalg.svd(asarray(t), compute_uv=False)
    if s.ndim == 2:
        return s.sum(axis=1)
    return float(s.sum())


def norms(t: np.ndarray):
    """(operator norm, trace norm, Hilbert-Schmidt norm) of a square matrix."""
    t = asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("norms are defined here for square matrices")
    s = np.linalg.svd(t, compute_uv=False)
    return float(s.max(initial=0.0)), float(s.sum()), float(np.sqrt((s**2).sum()))


def matrix_rank(a: np.ndarray, tol: float = ATOL) -> int:
    """Rank with singular values below tol * s_max counted as zero."""
    s = np.linalg.svd(asarray(a), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > tol * s[0]).sum())


def _kraus_columns(vals: np.ndarray, vecs: np.ndarray, tol: float,
                   factor: np.ndarray | None = None) -> np.ndarray:
    """Columns sqrt(lambda) v of the eigenpairs above _eig_tol(vals, tol).

    Given a ``factor`` F whose Gram matrix F^dag F has the eigenpairs (vals,
    vecs), the columns F v instead: F v = sqrt(lambda) u, with u the unit
    eigenvector of F F^dag for the same lambda, and no division.  With none
    above the cut (the zero map) one zero column is returned, so the map
    keeps a single zero Kraus operator.
    """
    keep = vals > _eig_tol(vals, tol)
    if not keep.any():
        return np.zeros((len(vals) if factor is None else len(factor), 1), dtype=complex)
    if factor is not None:
        return factor @ vecs[:, keep]
    return np.sqrt(vals[keep]) * vecs[:, keep]


# Operators on system (x) probe put the system outer and the probe inner:
# U[(a, j), (b, m)] = u.reshape(d, k, d, k)[a, j, b, m].

def _probe_kraus(u: np.ndarray, d: int, probe_ket: np.ndarray) -> np.ndarray:
    """Read-out stack A_j = (I (x) <j|) U (I (x) |xi>), shape (k, d, d), of a
    coupling U with the probe prepared in |xi> and read in its basis."""
    k = u.shape[0] // d
    return np.einsum("ajbm,m->jab", u.reshape(d, k, d, k), probe_ket.reshape(-1))


def _prepare_kraus(cols: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Measure-and-prepare stack K_jk = |c_j><k| root over the columns c_j of
    ``cols``, j-major: sum_k K_jk rho K_jk^dag = tr[root rho root^dag] c_j c_j^dag."""
    n, d = cols.shape[0], root.shape[1]
    return np.einsum("aj,kb->jkab", cols, root).reshape(-1, n, d)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Each ket along the last axis scaled to unit norm."""
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _lowest_eigh(m: np.ndarray):
    """Lowest eigenvalues (n,) and unit eigenvectors (n, k) of an (n, k, k) stack's Hermitian parts.

    At k = 2, for h = [[a, b], [b*, d]], the closed form lambda = (a + d)/2 - hypot((a - d)/2, |b|)
    (Kopp, Int. J. Mod. Phys. C 19, 523 (2008)) has the eigenvector (b, lambda - a) if a >= d, else
    (lambda - d, b*): nothing cancels, and a scalar member gets e_0.  From 3x3 on, numpy closed
    forms cost more than LAPACK's eigh at any stack size.
    """
    if m.shape[-1] != 2:
        vals, vecs = np.linalg.eigh(_herm(m))
        return vals[:, 0], vecs[:, :, 0]
    a, d, b = m[:, 0, 0].real, m[:, 1, 1].real, (m[:, 0, 1] + m[:, 1, 0].conj()) / 2
    lam = (a + d) / 2 - np.hypot((a - d) / 2, np.abs(b))
    top = a >= d
    v = np.stack([np.where(top, b, lam - d), np.where(top, lam - a, b.conj())], axis=1)
    norm = np.hypot(np.abs(v[:, 0]), np.abs(v[:, 1]))
    zero = norm == 0  # a scalar member
    v[zero, 0], norm[zero] = 1, 1
    return lam, v / norm[:, None]


def _seesaw(step, x: np.ndarray, max_iter: int, tol: float):
    """Alternating maximization over a stack of starts (leading axis).

    ``step`` maps a stack of points to the next points and their values;
    a reported value is a lower bound on the objective at the next point,
    and at least the value at the point stepped from; neither may depend
    on the positive scale of the input.  A start stops once a step raises
    its value by at most ``tol``; only the running starts' state is kept,
    and passed to ``step`` in start order.

    Points are vectors along the last axis, defined up to a phase, and a
    start that converges slowly also tries a jump.  Its last two gains g1,
    g2 estimate the linear rate of the point as r = sqrt(g1/g2), as the
    value near a smooth maximum closes quadratically in the point's
    distance; when g1/g2 lies in (1/4, 1) the jump is
    y = _unit_rows(x_k + r/(1 - r) (x_k - c x_{k-1})), the extrapolated
    limit, with the phase c aligning x_{k-1} with x_k.  y is stepped in the
    same ``step`` call as x_k and the step with the higher value is kept, so
    values never decrease and a gain is at least that of the plain step.
    A kept jump restarts the rate estimate.

    Returns ``(best value, argmax, iterations per start, converged per
    start)``.  ``converged`` means a step gained at most ``tol``; a start
    still rising at ``max_iter`` has not converged.
    """
    if not len(x):
        raise ValueError("at least one start is required")
    x = np.array(x)
    value = np.full(len(x), -np.inf)
    iterations = np.zeros(len(x), dtype=int)
    # the running starts: indices, points, previous points, values, last two gains
    idx, cur, prev, val = np.arange(len(x)), x, x, value
    g1 = g2 = np.full(len(x), np.nan)
    rounds = 0
    while idx.size and rounds < max_iter:
        m, points, jump = len(cur), cur, ()
        if rounds >= 3:  # a rate needs two finite gains; the first, from -inf, is not
            ratio = g1 / g2
            jump = np.flatnonzero((ratio > 0.25) & (ratio < 1))
        if len(jump):
            r = np.sqrt(ratio[jump]).reshape((-1,) + (1,) * (x.ndim - 1))
            xk, xp = cur[jump], prev[jump]
            phase = np.exp(1j * np.angle((xp.conj() * xk).sum(-1, keepdims=True)))
            points = np.concatenate([cur, _unit_rows(xk + r / (1 - r) * (xk - phase * xp))])
        nxt, new = step(points)
        if len(jump):
            better = new[m:] > new[jump]
            kept = jump[better]
            nxt[kept], new[kept] = nxt[m:][better], new[m:][better]
        gain = new[:m] - val
        stop = ~(gain > tol)
        prev, cur, val, g2, g1 = cur, nxt[:m], new[:m], g1, gain
        if len(jump):
            g1[kept] = np.nan  # a kept jump restarts the rate estimate: no rate for two rounds
        rounds += 1
        if stop.any():
            done, keep = idx[stop], ~stop
            x[done], value[done], iterations[done] = cur[stop], val[stop], rounds
            idx, cur, prev, val, g1, g2 = (a[keep] for a in (idx, cur, prev, val, g1, g2))
    x[idx], value[idx], iterations[idx] = cur, val, rounds
    converged = np.ones(len(x), dtype=bool)
    converged[idx] = False
    best = int(np.argmax(value))
    return float(value[best]), x[best], iterations, converged


def complete_unitary(cols: np.ndarray) -> np.ndarray:
    """Complete k orthonormal columns to a unitary by one Householder QR.

    The first k columns of the complete Q of ``cols`` span their range, so
    its last columns span the orthogonal complement (Golub and Van Loan,
    Matrix Computations, 5.2); the first k are then set to ``cols`` bit
    for bit.  The result is unitary only when ``cols`` is an isometry:
    callers check ``is_unitary``.
    """
    cols = asarray(cols)
    full = np.linalg.qr(cols, mode="complete")[0]
    full[:, :cols.shape[1]] = cols
    return full
