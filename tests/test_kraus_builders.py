"""Kraus lists read off linalg._probe_kraus and linalg._prepare_kraus.

Reference copies of the loops and the joint system (x) probe code that
these two helpers replaced are kept here.  Where the old code formed each
entry as one product, the new lists must be identical entry for entry;
where it conjugated a joint state and took a partial trace, the results
must agree to rounding (1e-12).
"""

import numpy as np
import pytest

from qitools.channels import (
    KrausChannel,
    _superop,
    dilation_apply,
    make,
    random_unitary_conjugate,
    stinespring,
)
from qitools.entanglement import maximally_entangled_ket
from qitools.instruments import repeatable_instrument, trivial_instrument
from qitools.linalg import dag, outer, partial_trace, psd_sqrt, tensor
from qitools.observables import Povm
from qitools.protocols import (
    Processor,
    ShiftMultiplyBasis,
    controlled_unitary_processor,
    probabilistic_processor,
    processor_identity_check,
    processor_pair,
    teleport,
    teleport_channel,
)
from qitools.rand import haar_unitary, random_density, random_ket, random_kraus_ops, rng_from
from qitools.states import (PAULIS, State, canonical_decomposition, purify,
                            traceless_hermitian_basis)

DIMS = (1, 2, 3, 4)
SEEDS = range(5)
CASES = [(d, seed) for d in DIMS for seed in SEEDS]


# ---------------------------------------------------------------------------
# Reference copies of the replaced code
# ---------------------------------------------------------------------------

def contraction_reference(xi):
    d = xi.shape[0]
    ops = []
    for lam, phi in canonical_decomposition(xi):
        for k in range(d):
            op = np.zeros((d, d), dtype=complex)
            op[:, k] = np.sqrt(lam) * phi[:, 0]
            ops.append(op)
    return ops


def random_unitary_conjugate_reference(pairs):
    d = np.asarray(pairs[0][1]).shape[0]
    n = len(pairs)
    ops = []
    for j, (p, _) in enumerate(pairs):
        if p == 0:
            continue
        for k in range(d):
            op = np.zeros((n, d), dtype=complex)
            op[j, k] = np.sqrt(p)
            ops.append(op)
    return ops


def trivial_instrument_reference(a, xi):
    terms = []
    xi_terms = canonical_decomposition(xi)
    for e in a.effects:
        root = psd_sqrt(e)
        kraus = []
        for lam, phi in xi_terms:
            for j in range(a.dim):
                kraus.append(np.sqrt(lam) * phi @ root[[j], :])
        terms.append(kraus)
    return terms


def repeatable_instrument_reference(a):
    ops = []
    for e in a.effects:
        vals, vecs = np.linalg.eigh(e)
        psi = vecs[:, [-1]]
        root = psd_sqrt(e)
        ops.append([psi @ root[[j], :] for j in range(a.dim)])
    return ops


def random_kraus_ops_reference(d, rng, count=None):
    n = count if count is not None else d
    big = haar_unitary(d * n, rng_from(rng))
    v = big[:, [b * n for b in range(d)]]
    return [v.reshape(d, n, d)[:, k, :] for k in range(n)]


def purify_reference(rho):
    terms = canonical_decomposition(rho)
    d = rho.shape[0]
    r = len(terms)
    psi = np.zeros((d * r, 1), dtype=complex)
    for j, (lam, phi) in enumerate(terms):
        anc = np.zeros((r, 1), dtype=complex)
        anc[j, 0] = 1.0
        psi += np.sqrt(lam) * tensor(phi, anc)
    return psi / np.linalg.norm(psi)


def dilation_apply_reference(env_dim, u, env_ket, rho):
    big = u @ tensor(rho, env_ket @ dag(env_ket)) @ dag(u)
    return partial_trace(big, rho.shape[0], env_dim, side="B")


def kraus_for_program_reference(proc, xi):
    d, k = proc.system_dim, proc.program_dim
    g = proc.unitary.reshape(d, k, d, k)
    return [np.einsum("abm,m->ab", g[:, j, :, :], xi.reshape(-1)) for j in range(k)]


def teleport_reference(rho):
    d = rho.shape[0]
    basis = ShiftMultiplyBasis.build(d)
    total = tensor(rho, outer(maximally_entangled_ket(d)))
    out = []
    for ket, u in zip(basis.bell_kets, basis.unitaries):
        proj = tensor(outer(ket), np.eye(d))
        branch = proj @ total @ proj
        prob = float(np.trace(branch).real)
        out.append((prob, u @ (partial_trace(branch, d * d, d, side="A") / prob) @ dag(u)))
    return out


def teleport_kraus_reference(d):
    basis = ShiftMultiplyBasis.build(d)
    share = tensor(np.eye(d), maximally_entangled_ket(d))
    return [u @ tensor(dag(ket), np.eye(d)) @ share
            for ket, u in zip(basis.bell_kets, basis.unitaries)]


def probabilistic_branches_reference(d, target_u, rng, n_inputs):
    basis = ShiftMultiplyBasis.build(d)
    proc = controlled_unitary_processor(list(basis.unitaries))
    k = d * d
    f_success = outer(np.full((k, 1), 1.0 / d, dtype=complex))
    amps = np.array([np.trace(dag(u) @ target_u) / d for u in basis.unitaries])
    rng = rng_from(rng)
    out = []
    for _ in range(n_inputs):
        rho = outer(random_ket(d, rng))
        big = proc.unitary @ tensor(rho, outer(amps.reshape(-1, 1))) @ dag(proc.unitary)
        selected = tensor(np.eye(d), f_success)
        branch = selected @ big @ selected
        out.append(float(np.trace(branch).real))
    return out


def random_povm(d, seed):
    ops = random_kraus_ops(d, seed, count=3)
    return Povm(("a", "b", "c"), tuple(dag(a) @ a for a in ops))


def sharp_povm(d, seed):
    """Projective measurement onto groups of Haar basis vectors, plus a blended pair."""
    u = haar_unitary(d, seed)
    p = [outer(u[:, [j]]) for j in range(d)]
    if d < 3:
        return Povm(tuple(range(d)), tuple(p))
    mid = sum(p[1:-1])
    return Povm(("x", "y"), (p[0] + 0.5 * mid, 0.5 * mid + p[-1]))


def assert_same_list(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.array_equal(np.asarray(a), np.asarray(b))


# ---------------------------------------------------------------------------
# Identical Kraus lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, seed", CASES)
def test_contraction_kraus_identical(d, seed):
    rank = 1 + seed % d
    xi = random_density(d, seed, rank=rank)
    assert_same_list(make("contraction", xi=xi).kraus_ops, contraction_reference(xi))


@pytest.mark.parametrize("d, seed", CASES)
def test_random_unitary_conjugate_kraus_identical(d, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(3)
    w[seed % 3] = 0.0  # zero weights are dropped
    pairs = [(p, haar_unitary(d, rng)) for p in w / w.sum()]
    assert_same_list(random_unitary_conjugate(pairs).kraus_ops,
                     random_unitary_conjugate_reference(pairs))


@pytest.mark.parametrize("d, seed", CASES)
def test_trivial_instrument_kraus_identical(d, seed):
    a = random_povm(d, seed)
    xi = State(random_density(d, seed + 100, rank=1 + seed % d))
    ins = trivial_instrument(a, xi)
    for op, old in zip(ins.operations, trivial_instrument_reference(a, xi)):
        assert_same_list(op.kraus_ops, old)


@pytest.mark.parametrize("d, seed", CASES)
def test_repeatable_instrument_kraus_identical(d, seed):
    a = sharp_povm(d, seed)
    ins = repeatable_instrument(a)
    for op, old in zip(ins.operations, repeatable_instrument_reference(a)):
        assert_same_list(op.kraus_ops, old)


def depolarizing_reference(d, p):
    ops = []
    if p < 1:
        ops.append(np.sqrt(1 - p) * np.eye(d, dtype=complex))
    if p > 0:
        basis = [np.eye(d, dtype=complex)] + list(traceless_hermitian_basis(d))
        ops.extend(np.sqrt(p / d) * (b / np.sqrt(d)) for b in basis)
    return ops


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_mixture_kraus_identical(d, p):
    assert_same_list(make("depolarizing", d=d, p=p).kraus_ops, depolarizing_reference(d, p))
    q = (1 - p, p / 2, 0.0, p / 2)
    assert_same_list(make("pauli", q=q).kraus_ops,
                     [np.sqrt(qj) * s for qj, s in zip(q, PAULIS) if qj > 0])
    damped = [np.sqrt(p) * PAULIS[0], np.sqrt(1 - p) * PAULIS[3]]
    assert_same_list(make("phase_damping", eta=p).kraus_ops,
                     [a for a, keep in zip(damped, (p > 0, p < 1)) if keep])


def processor_identity_reference(kraus1, kraus2):
    a, b = list(kraus1), list(kraus2)
    d = a[0].shape[1] if a else b[0].shape[1]
    while len(a) < len(b):
        a.append(np.zeros_like(b[0]))
    while len(b) < len(a):
        b.append(np.zeros_like(a[0]))
    total = sum(dag(x) @ y for x, y in zip(a, b))
    return total, complex(np.trace(total) / d)


@pytest.mark.parametrize("d, seed", CASES)
def test_processor_identity_check_identical(d, seed):
    k1 = random_kraus_ops(d, seed, count=1 + seed % 3)
    k2 = random_kraus_ops(d, seed + 1, count=2)
    for pair in ((k1, k2), (k2, k1), (k1, k1)):
        total, scalar = processor_identity_check(*pair)
        ref_total, ref_scalar = processor_identity_reference(*pair)
        # Same products in the same order; only the matmul kernel may differ.
        assert np.abs(total - ref_total).max() < 1e-14 and abs(scalar - ref_scalar) < 1e-14


@pytest.mark.parametrize("d, seed", CASES)
def test_random_kraus_ops_identical(d, seed):
    assert_same_list(random_kraus_ops(d, seed), random_kraus_ops_reference(d, seed))
    assert_same_list(random_kraus_ops(d, seed, count=2),
                     random_kraus_ops_reference(d, seed, count=2))


@pytest.mark.parametrize("d, seed", CASES)
def test_purify_identical(d, seed):
    rho = random_density(d, seed, rank=1 + seed % d)
    assert np.array_equal(purify(rho), purify_reference(rho))


@pytest.mark.parametrize("d, seed", CASES)
def test_kraus_for_program_identical(d, seed):
    proc, xi1, xi2 = processor_pair(KrausChannel(tuple(random_kraus_ops(d, seed))),
                                    KrausChannel(tuple(random_kraus_ops(d, seed + 1, count=2))))
    xi = (xi1 + 1j * xi2) / np.sqrt(2)
    assert_same_list(proc.kraus_for_program(xi), kraus_for_program_reference(proc, xi))
    assert isinstance(proc.kraus_for_program(xi), list)


# ---------------------------------------------------------------------------
# Joint-space code agrees to rounding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, seed", CASES)
def test_dilation_apply_matches_joint_state(d, seed):
    ch = KrausChannel(tuple(random_kraus_ops(d, seed, count=1 + seed % 3)))
    rho = random_density(d, seed + 50)
    dilation = stinespring(ch)
    assert np.max(np.abs(dilation_apply(*dilation, rho)
                         - dilation_apply_reference(*dilation, rho))) <= 1e-12


@pytest.mark.parametrize("d, seed", CASES)
def test_processor_apply_matches_joint_state(d, seed):
    rng = np.random.default_rng(seed)
    k = 1 + seed % 3
    proc = Processor(d, k, haar_unitary(d * k, rng))
    xi = random_ket(k, rng)
    rho = random_density(d, rng)
    old = dilation_apply_reference(k, proc.unitary, xi, rho)
    assert np.max(np.abs(proc.apply(rho, xi) - old)) <= 1e-12


@pytest.mark.parametrize("d, seed", CASES)
def test_teleport_matches_joint_state(d, seed):
    rho = random_density(d, seed)
    report = teleport(rho, rng=seed)
    from qitools.discrimination import fidelity

    old = teleport_reference(rho)
    assert [rec["outcome"] for rec in report.records] == [
        list(key) for key in ShiftMultiplyBasis.build(d).keys]
    for rec, (prob, corrected) in zip(report.records, old):
        assert abs(rec["probability"] - prob) <= 1e-12
        assert abs(rec["fidelity"] - fidelity(corrected, rho)) <= 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_teleport_channel_matches_joint_state(d):
    old = _superop(KrausChannel(tuple(teleport_kraus_reference(d))))
    assert np.max(np.abs(_superop(teleport_channel(d)) - old)) <= 1e-12


@pytest.mark.parametrize("d, seed", [(d, seed) for d in (2, 3) for seed in SEEDS])
def test_probabilistic_processor_matches_joint_state(d, seed):
    target = haar_unitary(d, np.random.default_rng(seed))
    report = probabilistic_processor(d, target, rng=seed)
    old = probabilistic_branches_reference(d, target, seed, 3)
    assert [rec["p_success"] for rec in report.records] == pytest.approx(old, abs=1e-12)
    assert min(rec["fidelity"] for rec in report.records) >= 1 - 1e-12


# ---------------------------------------------------------------------------
# Input checks of the builders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", [0, -1])
def test_random_kraus_ops_rejects_nonpositive_count(count):
    with pytest.raises(ValueError, match="^count must be a positive integer$"):
        random_kraus_ops(2, 0, count=count)


def test_random_unitary_rejects_nan_weight():
    pairs = [(float("nan"), np.eye(2)), (1.0, PAULIS[1])]
    with pytest.raises(ValueError, match="^weights must form a probability vector$"):
        make("random_unitary", pairs=pairs)


def test_pauli_rejects_nan_weight():
    with pytest.raises(ValueError, match="^pauli channel needs a probability 4-vector$"):
        make("pauli", q=(float("nan"), 1, 0, 0))


def test_random_unitary_conjugate_rejects_nan_weight():
    pairs = [(float("nan"), np.eye(2)), (1.0, PAULIS[1])]
    with pytest.raises(ValueError, match="^weights must form a probability vector$"):
        random_unitary_conjugate(pairs)
