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


def _within(err: float, tol: float, a: np.ndarray, offset: float = 0.0) -> bool:
    """err <= offset + tol * _scale(a), computing the norm only when needed.

    _scale(a) >= 1 and IEEE rounding is monotone, so for tol >= 0 the
    unscaled test err <= offset + tol already implies the scaled one.
    Non-finite ``a`` always takes the scaled path, so its errors (an SVD
    that does not converge on NaN entries) are raised as before.
    """
    if tol >= 0 and err <= offset + tol and np.isfinite(a).all():
        return True
    return bool(err <= offset + tol * _scale(a))


def _within_each(errs: np.ndarray, tol: float, stack: np.ndarray) -> np.ndarray:
    """_within(errs[k], tol, stack[k]) for each member of a stack, the fast
    path taken for all members at once."""
    ok = (errs <= tol) & np.isfinite(stack).all(axis=(1, 2)) & (tol >= 0)
    for k in np.flatnonzero(~ok):
        ok[k] = _within(errs[k], tol, stack[k])
    return ok


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


# How a carrier holds its arrays is decided here alone: a read-only array is a
# checked copy made by _frozen_copy or _frozen_stack, so the caller's arrays
# stay writable and the carrier's cannot change.  Every dataclass that holds an
# array, directly or through another carrier, is declared eq=False: equality is
# identity (x == x holds, an equal rebuild compares unequal) and every carrier
# is hashable, since an array has no single truth value and two operators can
# only agree within a tolerance.

def _frozen_copy(a, what: str, shape: tuple | None = None, dtype=complex) -> np.ndarray:
    """Read-only copy of ``a``, checked to have ``shape`` (when given) and finite entries."""
    m = np.array(a, dtype=dtype)
    if shape is not None and m.shape != shape:
        raise ValueError(f"{what} shape does not match the declared dimensions")
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
        ok = _within_each(errs, tol, a).all()
    else:
        ok = is_hermitian(a, tol)  # False for anything but a square matrix
    return _herm(a) if ok else None


def is_psd(a: np.ndarray, tol: float = ATOL) -> bool:
    a = asarray(a)
    return is_hermitian(a, tol) and _within(-np.linalg.eigvalsh(_herm(a)).min(), tol, a)


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


def partial_trace(t: np.ndarray, dA: int, dB: int, side: str = "A") -> np.ndarray:
    """Trace out one tensor factor of an operator on a dA*dB space.

    ``side="A"`` returns the dB x dB operator tr_A[t]; ``side="B"`` the
    dA x dA operator tr_B[t].
    """
    t = asarray(t)
    if t.shape != (dA * dB, dA * dB):
        raise ValueError(f"expected a {dA * dB} x {dA * dB} matrix, got {t.shape}")
    r = t.reshape(dA, dB, dA, dB)
    if side == "A":
        return np.einsum("ijik->jk", r)
    if side == "B":
        return np.einsum("ijkj->ik", r)
    raise ValueError("side must be 'A' or 'B'")


def partial_transpose(t: np.ndarray, dA: int, dB: int, side: str = "B") -> np.ndarray:
    """Blockwise transpose of one tensor factor in the product basis."""
    r = asarray(t).reshape(dA, dB, dA, dB)
    if side == "B":
        out = np.einsum("ijkl->ilkj", r)
    elif side == "A":
        out = np.einsum("ijkl->kjil", r)
    else:
        raise ValueError("side must be 'A' or 'B'")
    return out.reshape(dA * dB, dA * dB)


def swap_operator(d: int) -> np.ndarray:
    """V|j, k> = |k, j>; also the row-major superoperator of transposition."""
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


def eigh(t: np.ndarray, tol: float = ATOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(values, vectors)`` with orthonormal eigenvector columns.
    Degenerate eigenspaces come with an arbitrary orthonormal basis.
    """
    t = asarray(t)
    if not is_hermitian(t, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(_herm(t))  # the part is freed before the column copy below
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def psd_sqrt(t: np.ndarray, tol: float = ATOL) -> np.ndarray:
    """Unique PSD square root; eigenvalues in [-tol*||t||, 0) are clamped.

    A stack ``(n, d, d)`` gives the stack of roots from one stacked
    eigendecomposition; each member is checked as a single matrix is, and
    the first that fails raises the single-matrix message.
    """
    if np.ndim(t) == 3:
        return _psd_sqrt_stack(asarray(t), tol)
    vals, vecs = eigh(t, tol)
    if not _within(-vals.min(), tol, t):
        floor = -tol * _scale(t)
        raise ValueError(f"matrix is not PSD: eigenvalue {vals.min():.3e} below {floor:.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dag(vecs)


def _psd_sqrt_stack(t: np.ndarray, tol: float) -> np.ndarray:
    """psd_sqrt of each member of a stack, with the checks and the descending
    eigenvalue order of ``eigh`` and ``psd_sqrt`` on one matrix."""
    h = _hermitian(t, tol)
    if h is None:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals, axis=-1)[:, ::-1]
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    low = vals.min(axis=-1, initial=np.inf)
    bad = np.flatnonzero(~_within_each(-low, tol, t))
    if bad.size:
        k = bad[0]
        floor = -tol * _scale(t[k])
        raise ValueError(f"matrix is not PSD: eigenvalue {low[k]:.3e} below {floor:.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


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


def _kraus_columns(vals: np.ndarray, vecs: np.ndarray, tol: float) -> np.ndarray:
    """Columns sqrt(lambda) v of the eigenpairs above _eig_tol(vals, tol).

    With none above it (the zero map) one zero column is returned, so the
    map keeps a single zero Kraus operator.
    """
    keep = vals > _eig_tol(vals, tol)
    if not keep.any():
        return np.zeros((len(vals), 1), dtype=complex)
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


def _seesaw(step, x: np.ndarray, max_iter: int, tol: float):
    """Alternating maximization over a stack of starts (leading axis).

    ``step`` maps a stack of points to the next points and their values;
    a reported value is a lower bound on the objective at the next point,
    and at least the value at the point stepped from; neither may depend
    on the positive scale of the input.  A start stops once a step raises
    its value by at most ``tol``; only the running starts are passed to
    ``step``.

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
    prev = x.copy()
    value = np.full(len(x), -np.inf)
    g1 = np.full(len(x), np.nan)
    g2 = np.full(len(x), np.nan)
    iterations = np.zeros(len(x), dtype=int)
    running = np.arange(len(x))
    for _ in range(max_iter):
        if not running.size:
            break
        cur = x[running]
        ratio = g1[running] / g2[running]
        jump = np.flatnonzero((ratio > 0.25) & (ratio < 1))
        points = cur
        if jump.size:
            r = np.sqrt(ratio[jump]).reshape((-1,) + (1,) * (x.ndim - 1))
            xk, xp = cur[jump], prev[running[jump]]
            phase = np.exp(1j * np.angle(np.sum(xp.conj() * xk, axis=-1, keepdims=True)))
            points = np.concatenate([cur, _unit_rows(xk + r / (1 - r) * (xk - phase * xp))])
        nxt, new = step(points)
        better = new[len(cur):] > new[jump]
        kept = jump[better]
        nxt[kept], new[kept] = nxt[len(cur):][better], new[len(cur):][better]
        prev[running] = cur
        x[running] = nxt[:len(cur)]
        gain = new[:len(cur)] - value[running]
        value[running] = new[:len(cur)]
        g2[running], g1[running] = g1[running], gain
        g1[running[kept]] = g2[running[kept]] = np.nan
        iterations[running] += 1
        running = running[gain > tol]
    converged = ~np.isin(np.arange(len(x)), running)
    best = int(np.argmax(value))
    return float(value[best]), x[best], iterations, converged


def gram_schmidt_complete(cols: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Complete orthonormal columns to a full unitary, deterministically.

    Candidate vectors are the canonical basis kets, taken in order and
    orthogonalized twice against everything accepted so far: a single
    pass leaves a candidate whose residual is barely above ``tol`` far
    from orthogonal after cancellation.
    """
    cols = asarray(cols)
    dim, k = cols.shape
    basis = np.zeros((dim, dim), dtype=complex)
    basis[:, :k] = cols
    for j in range(dim):
        if k == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            v = v - basis[:, :k] @ (basis[:, :k].conj().T @ v)
        n = np.linalg.norm(v)
        if n > tol:
            basis[:, k] = v / n
            k += 1
    if k != dim:
        raise NumericError("failed to complete an orthonormal basis")
    return basis
