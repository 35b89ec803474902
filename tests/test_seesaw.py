"""The see-saw kernel and the four searches built on it.

Every search (sup_distance, contraction_factor, max_entangled_fraction
and the product-state minimum) runs the one kernel path, which also
steps an extrapolated jump for a slowly converging start.

Reference copies of the coordinate searches that the see-saw replaced
(``_refine_ket`` for sup_distance, the generator-angle search for
max_entangled_fraction), of the per-restart product-state loop and of the
plain see-saw without the jump are kept here: both old and new values are
lower bounds on a maximum, so the new one must not fall below the old one,
and the jump must not make a search take more steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitools.channels import (
    KrausChannel,
    _contraction_step,
    _sup_step,
    _superop,
    apply,
    contraction_factor,
    sup_distance,
    to_affine,
)
from qitools.entanglement import (
    BipartiteState,
    _mef_step,
    _min_product_expectation,
    _min_product_step,
    chsh_operator,
    max_entangled_fraction,
    upb_projector,
    werner,
)
from qitools.linalg import _seesaw, _unit_rows, dag, tensor, trace_norm
from qitools.rand import (
    haar_unitaries,
    haar_unitary,
    random_density,
    random_ket,
    random_kets,
    random_kraus_ops,
    rng_from,
)
from qitools.states import State, traceless_hermitian_basis

S2 = 1 / np.sqrt(2)
CHSH_VECTORS = ((1, 0, 0), (0, 1, 0), (S2, S2, 0), (S2, -S2, 0))


# ---------------------------------------------------------------------------
# Reference copies of the replaced searches
# ---------------------------------------------------------------------------

def refine_ket_reference(objective, ket0, steps=60, step0=0.5, window=1e-8):
    z = np.concatenate([ket0.real.ravel(), ket0.imag.ravel()])
    d = ket0.shape[0]

    def to_ket(vec):
        v = vec[:d] + 1j * vec[d:]
        n = np.linalg.norm(v)
        return None if n == 0 else (v / n).reshape(-1, 1)

    best = objective(to_ket(z))
    step = step0
    for _ in range(steps):
        improved = False
        for i in range(2 * d):
            for sign in (1.0, -1.0):
                cand = z.copy()
                cand[i] += sign * step
                k = to_ket(cand)
                if k is None:
                    continue
                val = objective(k)
                if val > best + window:
                    best, z, improved = val, cand, True
        if not improved:
            step /= 2
            if step < 1e-6:
                break
    return best


def sup_distance_reference(ch1, ch2, rng, restarts):
    rng = rng_from(rng)

    def objective(k):
        rho = k @ dag(k)
        return trace_norm(apply(ch1, rho) - apply(ch2, rho)) / 2

    return max(refine_ket_reference(objective, random_ket(ch1.in_dim, rng))
               for _ in range(restarts))


def mef_reference(rho, rng, restarts):
    """Generator-angle coordinate search (stacked generators for speed)."""
    d = rho.dA
    rng = rng_from(rng)
    gens = np.array(traceless_hermitian_basis(d))
    m = rho.matrix

    def value(angles):
        vals, vecs = np.linalg.eigh(np.tensordot(angles, gens, 1))
        v = ((vecs * np.exp(1j * vals)) @ dag(vecs)).reshape(-1)
        return float((v.conj() @ m @ v).real) / d

    n = d * d - 1
    best = -1.0
    for _ in range(restarts):
        angles = rng.uniform(-np.pi, np.pi, size=n)
        cur = value(angles)
        step = 0.5
        while step > 1e-4:
            improved = False
            for i in range(n):
                for sgn in (1.0, -1.0):
                    cand = angles.copy()
                    cand[i] += sgn * step
                    v = value(cand)
                    if v > cur + 1e-8:
                        cur, angles, improved = v, cand, True
            if not improved:
                step /= 2
        best = max(best, cur)
    return best


def min_product_reference(op, dA, dB, rng, restarts):
    best = np.inf
    for _ in range(restarts):
        random_ket(dA, rng)
        phi = random_ket(dB, rng)
        prev = np.inf
        for _ in range(100):
            kb = tensor(np.eye(dA), phi)
            mat_a = dag(kb) @ op @ kb
            _, vecs = np.linalg.eigh((mat_a + dag(mat_a)) / 2)
            psi = vecs[:, [0]]
            ka = tensor(psi, np.eye(dB))
            mat_b = dag(ka) @ op @ ka
            vals, vecs = np.linalg.eigh((mat_b + dag(mat_b)) / 2)
            phi = vecs[:, [0]]
            cur = float(vals[0])
            if prev - cur < 1e-12:
                break
            prev = cur
        best = min(best, cur)
    return best


def plain_seesaw_reference(step, x, max_iter, tol):
    """The see-saw kernel without the extrapolated jump."""
    x = np.array(x)
    value = np.full(len(x), -np.inf)
    iterations = np.zeros(len(x), dtype=int)
    running = np.arange(len(x))
    for _ in range(max_iter):
        if not running.size:
            break
        x[running], new = step(x[running])
        gain = new - value[running]
        value[running] = new
        iterations[running] += 1
        running = running[gain > tol]
    converged = ~np.isin(np.arange(len(x)), running)
    best = int(np.argmax(value))
    return float(value[best]), x[best], iterations, converged


# The kernel before its running state was compacted, verbatim: the compacted
# kernel must hand ``step`` the same stacks and return the same results.
def seesaw_reference(step, x: np.ndarray, max_iter: int, tol: float):
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


def random_channel(d, rng):
    return KrausChannel(tuple(random_kraus_ops(d, rng)))


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

def test_seesaw_stops_each_start_and_reports_convergence():
    # from x, a step reaches x + 1 with value 1 - 8^-(x + 1): the gains
    # shrink by 1/8 < 1/4 a step, so no extrapolated jump fires
    calls = []

    def step(x):
        calls.append(len(x))
        nxt = x + 1
        return nxt, 1 - 8.0 ** -nxt[:, 0]

    x0 = np.array([[0.0], [3.0], [10.0]])
    value, arg, iterations, converged = _seesaw(step, x0, max_iter=40, tol=1e-6)
    assert iterations.tolist() == [8, 5, 2]
    assert converged.all()
    assert calls == [3, 3, 2, 2, 2, 1, 1, 1]
    assert arg.tolist() == [12] and value == 1 - 8.0 ** -12
    assert x0.tolist() == [[0], [3], [10]]

    _, _, iterations, converged = _seesaw(step, x0, max_iter=4, tol=1e-6)
    assert iterations.tolist() == [4, 4, 2]
    assert converged.tolist() == [False, False, True]


def test_seesaw_extrapolates_a_slow_start():
    # a ket at angle t from |0> steps to angle 0.8 t (value cos 0.8 t) with a
    # fresh phase each time, as an eigh ket would carry
    values = []

    def step(x):
        t = np.arctan2((x[:, 0].conj() * x[:, 1]).real, np.abs(x[:, 0]) ** 2)
        phase = np.exp(1j * (len(values) + 1))
        values.append(np.cos(0.8 * t).max())
        return phase * np.stack([np.cos(0.8 * t), np.sin(0.8 * t)], axis=1), np.cos(0.8 * t)

    x0 = np.array([[np.cos(1.2), np.sin(1.2)]], dtype=complex)
    plain = plain_seesaw_reference(step, x0, 1000, 1e-12)
    values.clear()
    value, _, iterations, converged = _seesaw(step, x0, 1000, 1e-12)
    assert_nondecreasing(values)
    assert converged.all() and plain[3].all()
    assert iterations[0] < plain[2][0] / 2
    assert value > 1 - 1e-9


def saddle_unitary():
    # eigenphases 0 and 0.001 nearly coincide: starts that leave a saddle run to the cap
    w = haar_unitary(3, np.random.default_rng(7))
    return (w * np.exp(1j * np.array([0.0, 0.001, 2.0]))) @ dag(w)


def assert_same_as_reference(step, starts, max_iter, iterations=None):
    """The kernel hands ``step`` the same stacks as the reference and returns the same results."""
    runs = []
    for kernel in (_seesaw, seesaw_reference):
        calls = []

        def recording(points, calls=calls):
            calls.append(points.copy())
            return step(points)

        runs.append((kernel(recording, starts, max_iter, 1e-12), calls))
    ((value, arg, its, conv), calls), (ref, ref_calls) = runs
    assert value == ref[0] and np.array_equal(arg, ref[1])
    assert np.array_equal(its, ref[2]) and np.array_equal(conv, ref[3])
    assert len(calls) == len(ref_calls)
    assert all(np.array_equal(a, b) for a, b in zip(calls, ref_calls))
    if iterations is not None:
        assert its.tolist() == iterations


def test_compacted_kernel_matches_reference_on_the_tiles_projector():
    t = upb_projector().reshape(3, 3, 3, 3)
    _, phi = random_kets((3, 3), 200, rng_from(109))
    assert_same_as_reference(lambda p: _min_product_step(t, p), phi, 100)


def test_compacted_kernel_matches_reference_on_a_saddle():
    s = _superop(KrausChannel((saddle_unitary(),))) - _superop(
        KrausChannel((np.eye(3, dtype=complex),)))
    (kets,) = random_kets((3,), 8, 0)
    assert_same_as_reference(lambda k: _sup_step(s, 3, k), kets, 1000,
                             [1000, 8, 1000, 11, 8, 11, 1000, 1000])


def test_compacted_kernel_matches_reference_on_a_werner_state():
    m = werner(3, 0.3).matrix
    shifted = m - np.linalg.eigvalsh(m)[0] * np.eye(9)
    starts = haar_unitaries(3, 64, 5).reshape(64, 9)
    assert_same_as_reference(lambda u: _mef_step(m, shifted, u), starts, 1000)


def test_compacted_kernel_matches_reference_on_a_slow_contraction():
    s = _superop(KrausChannel(tuple(random_kraus_ops(4, 1))))
    pairs = np.stack(random_kets((4, 4), 50, 0), axis=1)
    assert_same_as_reference(lambda x: _contraction_step(s, 4, x), pairs, 1000)


def test_sup_distance_reaches_a_slowly_converging_maximum():
    # the plain see-saw crawls and stops about 9e-6 short of sin(1) after 1000 steps
    ident = KrausChannel((np.eye(3, dtype=complex),))
    value, _ = sup_distance(KrausChannel((saddle_unitary(),)), ident, rng=0, restarts=8)
    assert abs(value - np.sin(1.0)) < 1e-9


def assert_no_more_steps_than_plain(step, starts, max_iter):
    plain = plain_seesaw_reference(step, starts, max_iter, 1e-12)[2].max()
    assert _seesaw(step, starts, max_iter, 1e-12)[2].max() <= plain


@pytest.mark.parametrize("phases", [(0.0, 0.5, 1.0), (0.0, 0.3, 2.5), (0.0, 0.002, 1.159)])
def test_extrapolation_never_raises_the_largest_step_count(phases):
    w = haar_unitary(3, np.random.default_rng(7))
    u = (w * np.exp(1j * np.array(phases))) @ dag(w)
    s = _superop(KrausChannel((u,))) - _superop(KrausChannel((np.eye(3, dtype=complex),)))
    (kets,) = random_kets((3,), 64, 11)
    assert_no_more_steps_than_plain(lambda k: _sup_step(s, 3, k), kets, 1000)


@pytest.mark.parametrize("seed, restarts", [(109, 200), (0, 60)])
def test_extrapolation_never_raises_the_product_search_step_count(seed, restarts):
    t = upb_projector().reshape(3, 3, 3, 3)
    _, phi = random_kets((3, 3), restarts, rng_from(seed))
    assert_no_more_steps_than_plain(lambda p: _min_product_step(t, p), phi, 100)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_extrapolation_never_raises_the_mef_step_count(seed):
    # the points are rows vec(U), so the jump's phase aligns the global phase of U
    m = random_density(9, seed)
    shifted = m - np.linalg.eigvalsh(m)[0] * np.eye(9)
    starts = haar_unitaries(3, 64, seed).reshape(64, 9)
    assert_no_more_steps_than_plain(lambda u: _mef_step(m, shifted, u), starts, 1000)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "phases, tol",
    [((0.0, 0.5, 1.0), 1e-9), ((0.0, 0.3, 2.5), 1e-9), ((0.0, 0.002, 1.159), 1e-9)],
)
def test_sup_distance_of_unitary_against_identity(phases, tol):
    # eigenphases spanning an arc s < pi: Delta_sup(U, id) = sin(s / 2)
    rng = np.random.default_rng(7)
    w = haar_unitary(3, rng)
    u = (w * np.exp(1j * np.array(phases))) @ dag(w)
    ident = KrausChannel((np.eye(3, dtype=complex),))
    value, psi = sup_distance(KrausChannel((u,)), ident, rng=11)
    assert abs(value - np.sin(max(phases) / 2)) < tol
    rho = psi @ dag(psi)
    assert abs(trace_norm(u @ rho @ dag(u) - rho) / 2 - value) < 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_qubit_contraction_factor_is_largest_singular_value_of_t(rank):
    # trace distance of qubit states is half the Euclidean Bloch distance,
    # so a TP qubit map contracts by the operator norm of its affine block T
    rng = np.random.default_rng(60 + rank)
    for _ in range(8):
        ch = KrausChannel(tuple(random_kraus_ops(2, rng, count=rank)))
        exact = np.linalg.svd(to_affine(ch).T, compute_uv=False)[0]
        assert abs(contraction_factor(ch, 8, rng=int(rng.integers(2**31))) - exact) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mef_of_pure_state_is_squared_schmidt_sum(seed):
    psi = random_ket(9, seed)
    s = np.linalg.svd(psi.reshape(3, 3), compute_uv=False)
    value = max_entangled_fraction(BipartiteState(State.from_ket(psi), 3, 3), rng=seed)
    assert abs(value - s.sum() ** 2 / 3) < 1e-9


@pytest.mark.parametrize("mu", [0.6665, 2 / 3, 0.6673, 0.7])
def test_mef_of_werner_near_the_maximally_mixed_point(mu):
    exact = max(mu / 6, mu / 18 + 2 * (1 - mu) / 9)
    assert abs(max_entangled_fraction(werner(3, mu), rng=5) - exact) < 1e-9
    assert abs(max_entangled_fraction(werner(3, mu), rng=5, restarts=8) - exact) < 1e-9


# ---------------------------------------------------------------------------
# Seeded streams and agreement with the replaced loops
# ---------------------------------------------------------------------------

def test_random_kets_reproduce_random_ket_draws():
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    psi, phi = random_kets((2, 3), 5, rng_a)
    for r in range(5):
        assert np.abs(psi[r] - random_ket(2, rng_b).ravel()).max() < 1e-15
        assert np.abs(phi[r] - random_ket(3, rng_b).ravel()).max() < 1e-15
    assert rng_a.standard_normal() == rng_b.standard_normal()


@pytest.mark.parametrize(
    "op, dims, seed, restarts",
    [
        (upb_projector(), (3, 3), 109, 200),
        (upb_projector(), (3, 3), 0, 60),
        (2 * np.eye(4) + chsh_operator(*CHSH_VECTORS), (2, 2), 0, 100),
        (2 * np.eye(4) - chsh_operator(*CHSH_VECTORS), (2, 2), 3, 100),
    ],
)
def test_batched_min_product_matches_per_restart_loop(op, dims, seed, restarts):
    op = np.asarray(op, dtype=complex)
    batched = _min_product_expectation(op, *dims, rng_from(seed), restarts)
    assert abs(batched - min_product_reference(op, *dims, rng_from(seed), restarts)) < 1e-12


@pytest.mark.parametrize("d, count", [(2, 4), (3, 3), (4, 2)])
def test_sup_distance_never_below_coordinate_search(d, count):
    rng = np.random.default_rng(40 + d)
    for _ in range(count):
        ch1, ch2 = random_channel(d, rng), random_channel(d, rng)
        seed = int(rng.integers(2**31))
        old = sup_distance_reference(ch1, ch2, seed, restarts=4)
        assert sup_distance(ch1, ch2, rng=seed)[0] >= old - 1e-9


@pytest.mark.parametrize("d, count", [(2, 3), (3, 2), (4, 1)])
def test_mef_never_below_angle_search(d, count):
    rng = np.random.default_rng(50 + d)
    for _ in range(count):
        rho = BipartiteState(State(random_density(d * d, rng)), d, d)
        seed = int(rng.integers(2**31))
        assert max_entangled_fraction(rho, rng=seed) >= mef_reference(rho, seed, 4) - 1e-9


# ---------------------------------------------------------------------------
# Monotonicity of every step
# ---------------------------------------------------------------------------

def assert_nondecreasing(values):
    values = np.array(values)
    assert (np.diff(values, axis=0) >= -1e-12).all()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]))
def test_sup_step_never_decreases_the_trace_distance(seed, d):
    rng = np.random.default_rng(seed)
    ch1, ch2 = random_channel(d, rng), random_channel(d, rng)
    s = _superop(ch1) - _superop(ch2)
    (kets,) = random_kets((d,), 6, rng)

    def objective(k):
        rho = np.einsum("ni,nj->nij", k, k.conj())
        out = (rho.reshape(len(k), -1) @ s.T).reshape(-1, d, d)
        return np.linalg.svd(out, compute_uv=False).sum(axis=1) / 2

    values = [objective(kets)]
    for _ in range(8):
        nxt, reported = _sup_step(s, d, kets)
        assert (reported >= values[-1] - 1e-12).all()
        kets = nxt
        values.append(objective(kets))
        assert (values[-1] >= reported - 1e-12).all()
    assert_nondecreasing(values)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]),
       rank=st.integers(1, 4))
def test_contraction_step_never_decreases_the_output_distance(seed, d, rank):
    rng = np.random.default_rng(seed)
    s = _superop(KrausChannel(tuple(random_kraus_ops(d, rng, count=rank))))
    pairs = np.stack(random_kets((d, d), 6, rng), axis=1)

    def objective(p):
        x = np.einsum("ni,nj->nij", p[:, 0], p[:, 0].conj())
        x -= np.einsum("ni,nj->nij", p[:, 1], p[:, 1].conj())
        out = (x.reshape(len(p), -1) @ s.T).reshape(-1, d, d)
        return np.linalg.svd(out, compute_uv=False).sum(axis=1) / 2

    values = [objective(pairs)]
    for _ in range(8):
        nxt, reported = _contraction_step(s, d, pairs)
        assert (reported >= values[-1] - 1e-12).all()
        pairs = nxt
        overlap = np.abs(np.einsum("ni,ni->n", pairs[:, 0].conj(), pairs[:, 1]))
        assert (overlap < 1e-12).all()  # the new pair is orthogonal
        values.append(objective(pairs))
        assert (values[-1] >= reported - 1e-12).all()
    assert_nondecreasing(values)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]),
       rank=st.integers(1, 4))
def test_mef_step_never_decreases_the_fraction(seed, d, rank):
    rng = np.random.default_rng(seed)
    m = random_density(d * d, rng, rank=min(rank, d * d))
    shifted = m - np.linalg.eigvalsh(m)[0] * np.eye(d * d)
    u = haar_unitaries(d, 6, rng)
    values = [np.einsum("ni,ij,nj->n", u.reshape(6, -1).conj(), m, u.reshape(6, -1)).real / d]
    for _ in range(8):
        u, value = _mef_step(m, shifted, u)
        values.append(value)
    assert_nondecreasing(values)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_min_product_step_never_raises_the_expectation(seed, dims):
    rng = np.random.default_rng(seed)
    dA, dB = dims
    g = rng.standard_normal((dA * dB,) * 2) + 1j * rng.standard_normal((dA * dB,) * 2)
    t = ((g + dag(g)) / 2).reshape(dA, dB, dA, dB)
    _, phi = random_kets(dims, 6, rng)
    values = []
    for _ in range(8):
        phi, value = _min_product_step(t, phi)
        values.append(value)
    assert_nondecreasing(values)
