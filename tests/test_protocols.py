import numpy as np
import pytest

from qitools.channels import (
    KrausChannel,
    apply,
    make,
    process_fidelity,
    to_choi,
    unitary_channel,
)
from qitools.discrimination import fidelity
from qitools.entanglement import maximally_entangled_ket
from qitools.linalg import dag, outer, tensor, trace_norm
from qitools.protocols import (
    ShiftMultiplyBasis,
    _pqc_keyless_gap,
    _shift_multiply,
    _teleport_kraus,
    b92,
    bb84,
    controlled_unitary_processor,
    mean_king,
    phase_damping_processor,
    private_quantum_channel,
    probabilistic_processor,
    processor_identity_check,
    processor_pair,
    superdense,
    teleport,
    teleport_channel,
)
from qitools.rand import haar_unitary, random_density, random_ket
from qitools.states import PAULIS, State


def test_shift_multiply_basis_orthogonality():
    for d in (2, 3):
        basis = ShiftMultiplyBasis.build(d)
        keys = range(len(basis.keys))
        for k1 in keys:
            for k2 in keys:
                hs = np.trace(dag(basis.unitaries[k1]) @ basis.unitaries[k2])
                expected = d if k1 == k2 else 0.0
                assert abs(hs - expected) < 1e-10
        gram = np.array(
            [[complex((dag(basis.bell_kets[k1]) @ basis.bell_kets[k2])[0, 0])
              for k2 in keys] for k1 in keys]
        )
        assert np.abs(gram - np.eye(d * d)).max() < 1e-10


def shift_multiply_reference(d):
    """The per-entry loop and kron product that ShiftMultiplyBasis.build replaced."""
    psi_plus = maximally_entangled_ket(d)
    us, kets = {}, {}
    for r in range(d):
        for s in range(d):
            u = np.zeros((d, d), dtype=complex)
            for l in range(d):
                u[(l - r) % d, l] = np.exp(-2j * np.pi * s * l / d)
            us[(r, s)] = u
            kets[(r, s)] = tensor(u, np.eye(d)) @ psi_plus
    return us, kets


@pytest.mark.parametrize("d", range(1, 9))
def test_shift_multiply_basis_is_bitwise_the_kron_reference(d):
    # d = 6 is the first size where a complex phase -2j*pi*s*l/d, divided
    # as an array, rounds differently from the scalar loop.
    basis = ShiftMultiplyBasis.build(d)
    us, kets = shift_multiply_reference(d)
    for got, want in ((basis.unitaries, us), (basis.bell_kets, kets)):
        assert list(basis.keys) == list(want)
        got = dict(zip(basis.keys, got))
        for key in want:
            assert got[key].shape == want[key].shape
            assert got[key].tobytes() == want[key].tobytes()


def test_teleport_exact():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        rep = teleport(State(random_density(d, rng)), rng=1)
        assert rep.rounds == d * d
        for rec in rep.records:
            assert abs(rec["probability"] - 1 / d**2) < 1e-9
            assert abs(rec["fidelity"] - 1) < 1e-9


def teleport_reference(rho, seed):
    """The per-outcome loop that teleport replaced: one branch and one fidelity
    per Bell outcome, from a freshly built basis."""
    d = rho.shape[0]
    basis = ShiftMultiplyBasis.build(d)
    bell = basis.bell_kets.reshape(-1, d, d)
    share = maximally_entangled_ket(d).reshape(d, d)
    kraus = basis.unitaries @ np.einsum("rxy,yb->rbx", bell.conj(), share)
    probs, fids = [], []
    for k in kraus:
        branch = k @ rho @ dag(k)
        probs.append(float(np.trace(branch).real))
        fids.append(fidelity(branch / probs[-1], rho))
    sampled = np.random.default_rng(seed).choice(d * d, p=probs)
    return probs, fids, list(basis.keys[sampled])


@pytest.mark.parametrize("d", range(1, 7))
def test_teleport_matches_per_outcome_loop(d):
    for seed in range(10):
        rho = random_density(d, seed)
        probs, fids, sampled = teleport_reference(rho, seed)
        rep = teleport(rho, rng=seed)
        assert [r["probability"] for r in rep.records] == probs
        assert rep.summary["probabilities"] == probs
        assert np.abs(np.array([r["fidelity"] for r in rep.records]) - fids).max() < 1e-14
        assert rep.summary["sampled_outcome"] == sampled


def test_per_dimension_tables_are_built_once_and_read_only():
    for cache in (_shift_multiply, _teleport_kraus, _pqc_keyless_gap):
        cache.cache_clear()
    for d in (2, 3, 2, 3):
        teleport(random_density(d, d), rng=0)
        private_quantum_channel(d, 5, rng=0)
        probabilistic_processor(d, np.eye(d), rng=0)
    for cache in (_shift_multiply, _teleport_kraus, _pqc_keyless_gap):
        assert cache.cache_info().misses == 2
        assert cache.cache_info().maxsize is not None
    basis = _shift_multiply(3)
    assert _shift_multiply(3) is basis
    assert not basis.unitaries.flags.writeable and not _teleport_kraus(3).flags.writeable
    with pytest.raises(ValueError):
        _teleport_kraus(3)[0, 0, 0] = 1.0
    assert _pqc_keyless_gap(3) == 0.0
    # The public builder still returns a fresh object each time.
    assert ShiftMultiplyBasis.build(3) is not ShiftMultiplyBasis.build(3)
    assert ShiftMultiplyBasis.build(3) is not basis


@pytest.mark.parametrize("rho, message", [
    (0.5001 * np.eye(2), "state trace is"),
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "state matrix is not Hermitian"),
    (np.diag([1.5, -0.5]), "state matrix is not PSD"),
    (np.ones((2, 3)) / 2, "a state must be a square matrix"),
])
def test_teleport_rejects_an_input_that_is_not_a_state(rho, message):
    with pytest.raises(ValueError, match=message):
        teleport(rho)


def test_teleport_pure_input():
    rep = teleport(State.from_ket(random_ket(2, np.random.default_rng(2))), rng=0)
    assert rep.summary["min_fidelity"] > 1 - 1e-9


def test_teleport_channel_is_identity():
    for d in (2, 3):
        tc = teleport_channel(d)
        ident = KrausChannel((np.eye(d, dtype=complex),))
        assert trace_norm(to_choi(tc).matrix - to_choi(ident).matrix) < 1e-9


def test_superdense_all_messages():
    for message in (*range(4), np.int64(2)):
        rep = superdense(message)
        assert rep.summary["decoded"] == message
        assert abs(rep.summary["decode_probability"] - 1) < 1e-10
        marginal = np.array(rep.summary["intercepted_marginal"])
        assert np.abs(marginal - np.eye(2) / 2).max() < 1e-10


@pytest.mark.parametrize("message", [1.0, np.float64(2.0), True, False, "1", None, 4, -1])
def test_superdense_rejects_a_message_that_is_not_two_bits(message):
    with pytest.raises(ValueError, match=r"^message must encode two bits \(0\.\.3\)$"):
        superdense(message)


def test_superdense_probabilities_are_exactly_one_hot():
    """Distinct Bell kets have overlap exactly 0, so no rounding residue is printed."""
    for message in range(4):
        probs = superdense(message).records[0]["probabilities"]
        assert probs == [float(k == message) for k in range(4)]


def test_superdense_bell_kets_orthogonal():
    from qitools.entanglement import maximally_entangled_ket

    psi = maximally_entangled_ket(2)
    kets = [tensor(p, np.eye(2)) @ psi for p in PAULIS]
    gram = np.array([[complex((dag(a) @ b)[0, 0]) for b in kets] for a in kets])
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_bb84_table_reads_the_stern_gerlach_projectors_exactly():
    from qitools.protocols import _bb84_tables

    # p_one[bit, prepared basis, measured basis], basis 0 = sigma_z, 1 = sigma_x.
    assert _bb84_tables()[0].tolist() == [[[0.0, 0.5], [0.5, 0.0]], [[1.0, 0.5], [0.5, 1.0]]]


def test_bb84_without_eve():
    rep = bb84(3000, eve="none", rng=5)
    assert rep.summary["qber"] == 0.0
    assert abs(rep.summary["sift_rate"] - 0.5) < 0.05
    assert rep.summary["eve_correct_fraction"] is None


def test_bb84_with_eve():
    rep = bb84(8000, eve="intercept_resend", rng=5)
    assert abs(rep.summary["qber"] - 0.25) < 0.03
    assert abs(rep.summary["eve_correct_fraction"] - 0.75) < 0.03


def test_bb84_sift_statistics():
    # same basis: always equal; different basis: half
    rep = bb84(6000, eve="none", rng=6)
    same = [r for r in rep.records if r["sifted"]]
    diff = [r for r in rep.records if not r["sifted"]]
    assert all(r["alice_bit"] == r["bob_bit"] for r in same)
    frac = np.mean([r["alice_bit"] == r["bob_bit"] for r in diff])
    assert abs(frac - 0.5) < 0.05
    # chi-square sanity on the 2x2 basis-choice counts
    counts = np.zeros((2, 2))
    for r in rep.records:
        counts[r["alice_basis"], r["bob_basis"]] += 1
    expected = len(rep.records) / 4
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 20  # 3 dof, wildly generous


def test_bb84_reproducible():
    r1 = bb84(500, eve="intercept_resend", rng=9)
    r2 = bb84(500, eve="intercept_resend", rng=9)
    assert r1.to_dict() == r2.to_dict()


def test_b92():
    rep = b92(6000, 0.5, rng=4)
    assert rep.summary["conclusive_errors"] == 0
    assert abs(rep.summary["conclusive_rate"] - 0.5) < 0.03
    rep = b92(200, 0.0, rng=4)
    assert rep.summary["conclusive_rate"] == 1.0


def test_private_quantum_channel():
    rep = private_quantum_channel(3, 10, rng=8)
    assert rep.summary["keyless_choi_deviation"] < 1e-9
    assert rep.summary["min_decode_fidelity"] > 1 - 1e-9
    assert abs(rep.summary["key_bits_total"] - 20 * np.log2(3)) < 1e-12


def test_mean_king():
    rep = mean_king()
    table = np.array(rep.summary["table"])
    assert rep.summary["success_probability"] == 1.0
    # every entry is 0 or 1/2, each column sums to 1
    assert np.all((np.abs(table) < 1e-9) | (np.abs(table - 0.5) < 1e-9))
    assert np.abs(table.sum(axis=0) - 1).max() < 1e-9
    expected = 0.5 * np.array(
        [
            [1, 0, 1, 0, 0, 1],
            [0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 1, 0],
            [1, 0, 0, 1, 1, 0],
        ]
    )
    assert np.abs(table - expected).max() < 1e-9


def test_mean_king_basis_orthonormal():
    from qitools.protocols import _mean_king_basis

    thetas = _mean_king_basis()
    gram = np.array([[complex((dag(a) @ b)[0, 0]) for b in thetas] for a in thetas])
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_processor_pair_realizes_both():
    rng = np.random.default_rng(3)
    e1 = make("depolarizing", d=2, p=0.25)
    e2 = make("phase_damping", eta=0.6)
    proc, xi1, xi2 = processor_pair(e1, e2)
    rho = random_density(2, rng)
    assert np.abs(proc.apply(rho, xi1) - apply(e1, rho)).max() < 1e-9
    assert np.abs(proc.apply(rho, xi2) - apply(e2, rho)).max() < 1e-9
    total, scalar = processor_identity_check(
        proc.kraus_for_program(xi1), proc.kraus_for_program(xi2)
    )
    assert np.abs(total - scalar * np.eye(2)).max() < 1e-9


def test_distinct_unitaries_need_orthogonal_programs():
    u1 = np.eye(2, dtype=complex)
    u2 = PAULIS[1]
    proc, xi1, xi2 = processor_pair(unitary_channel(u1), unitary_channel(u2))
    total, scalar = processor_identity_check(
        proc.kraus_for_program(xi1), proc.kraus_for_program(xi2)
    )
    # sum A_j^dag B_j = <Xi1|Xi2> I forces c = 0 here
    assert np.abs(total - scalar * np.eye(2)).max() < 1e-9
    assert abs(scalar) < 1e-9
    assert abs(complex((dag(xi1) @ xi2)[0, 0])) < 1e-12


def test_phase_damping_family_single_program_space():
    for axis in ("z", "x", (0, 1, 0)):
        proc, xi_i, xi_u = phase_damping_processor(axis)
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        for eta in (0.0, 0.25, 1.0):
            xi = np.sqrt(eta) * xi_i + np.sqrt(1 - eta) * xi_u
            target = make("phase_damping", eta=eta, axis=axis)
            assert np.abs(proc.apply(rho, xi) - apply(target, rho)).max() < 1e-9
            # program overlap identity <Xi_eta1|Xi_eta2>
            k1 = proc.kraus_for_program(xi)
            k2 = proc.kraus_for_program(xi_i)
            _, scalar = processor_identity_check(k1, k2)
            assert abs(scalar - np.sqrt(eta)) < 1e-9


def test_probabilistic_processor():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        u = haar_unitary(d, rng)
        rep = probabilistic_processor(d, u, rng=6)
        assert abs(rep.summary["p_success"] - 1 / d**2) < 1e-9
        assert abs(rep.summary["amplitude_norm"] - 1) < 1e-9
        assert rep.summary["min_fidelity"] > 1 - 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_probabilistic_processor_matches_per_input_loop(d):
    u = haar_unitary(d, d)
    basis = ShiftMultiplyBasis.build(d)
    amps = np.array([np.trace(dag(v) @ u) / d for v in basis.unitaries])
    proc = controlled_unitary_processor(basis.unitaries)
    # Reading the program register out as phi = (1/d, ..., 1/d) sums the Kraus list.
    post = sum(proc.kraus_for_program(amps)) / d
    rng = np.random.default_rng(7)
    expected = []
    for _ in range(4):
        rho = outer(random_ket(d, rng))
        branch = post @ rho @ dag(post)
        p = float(np.trace(branch).real)
        expected.append((p, fidelity(branch / p, u @ rho @ dag(u))))
    rep = probabilistic_processor(d, u, rng=7, n_inputs=4)
    got = [(r["p_success"], r["fidelity"]) for r in rep.records]
    assert np.abs(np.array(got) - np.array(expected)).max() < 1e-14
    assert abs(rep.summary["amplitude_norm"] - np.linalg.norm(amps) ** 2) < 1e-14


@pytest.mark.parametrize("target", [2 * np.eye(2), np.eye(3), np.eye(4)[:2], np.ones((2, 2))])
def test_probabilistic_processor_rejects_a_target_that_is_not_a_d_by_d_unitary(target):
    with pytest.raises(ValueError, match="processor target must be a d x d unitary"):
        probabilistic_processor(2, target)


def test_probabilistic_processor_rejects_negative_n_inputs():
    with pytest.raises(ValueError, match="^n_inputs must be a non-negative integer$"):
        probabilistic_processor(2, np.eye(2), n_inputs=-2)
    assert probabilistic_processor(2, np.eye(2), n_inputs=0).rounds == 0


def test_approximate_processor_bound():
    # controlled-U over the Pauli basis: the best basis program reaches
    # process fidelity >= 1/d to any unitary target, and the fully mixed
    # program realizes the total contraction, at exactly 1/d for unitaries.
    rng = np.random.default_rng(7)
    paulis = [p.astype(complex) for p in PAULIS]
    proc = controlled_unitary_processor(paulis)
    d = 2
    for _ in range(5):
        u = haar_unitary(d, rng)
        target = unitary_channel(u)
        best = max(
            process_fidelity(unitary_channel(p), target) for p in paulis
        )
        assert best >= 1 / d - 1e-9
        # fully mixed program: realized channel is the total contraction
        xi_mixed = np.eye(4, dtype=complex) / 4
        rho = random_density(2, rng)
        big = proc.unitary @ tensor(rho, xi_mixed) @ dag(proc.unitary)
        from qitools.linalg import partial_trace

        out = partial_trace(big, 2, 4, side="B")
        assert np.abs(out - np.eye(2) / 2).max() < 1e-9
        a0 = make("contraction", xi=State.maximally_mixed(2))
        assert abs(process_fidelity(a0, target) - 1 / d) < 5e-8


def test_report_roundtrip_dict():
    rep = superdense(2)
    d = rep.to_dict()
    assert d["protocol"] == "superdense" and d["rounds"] == 1
    assert isinstance(d["records"], list)


def test_success_effect_has_fixed_trace():
    # whatever the program, the success effect of the shift-multiply
    # processor has trace 1/d
    rng = np.random.default_rng(11)
    for d in (2, 3):
        basis = ShiftMultiplyBasis.build(d)
        keys = basis.keys
        k = d * d
        phi = np.full((k, 1), 1.0 / d, dtype=complex)
        for _ in range(5):
            xi = random_ket(k, rng)
            m = sum(
                complex((dag(phi) @ _basis_ket(k, j))[0, 0])
                * complex((dag(_basis_ket(k, j)) @ xi)[0, 0])
                * basis.unitaries[j]
                for j, key in enumerate(keys)
            )
            effect = dag(m) @ m
            assert abs(np.trace(effect).real - 1 / d) < 1e-9


def _basis_ket(dim, j):
    v = np.zeros((dim, 1), dtype=complex)
    v[j, 0] = 1.0
    return v
