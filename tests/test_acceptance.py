"""Acceptance suite: every reference value at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import contextlib

import numpy as np
import pytest

from qitools.channels import (
    KrausChannel,
    apply,
    conjugate,
    dilation_apply,
    from_choi,
    make,
    qubit_cp_check,
    stinespring,
    sup_distance,
    to_chi,
    to_choi,
    transposition_map,
    unitary_channel,
)
from qitools.discrimination import (
    fidelity,
    helstrom,
    prob_distances,
    trace_distance,
    unambiguous_mixture_povm,
    unambiguous_two_pure,
)
from qitools.entanglement import (
    BipartiteState,
    chsh_value,
    maximally_entangled_state,
    ppt,
    reduction_criterion,
    tiles_upb,
    twirl,
    twirl_monte_carlo,
    upb_epsilon,
    upb_state,
    upb_witness,
    werner_report,
    witness_evaluate,
)
from qitools.instruments import (
    MeasurementModel,
    is_repeatable,
    luders,
    luders_disturbs,
    memo_to_instrument,
    trivial_instrument,
)
from qitools.linalg import dag, inner, outer, tensor, unit_ket
from qitools.observables import Povm, efficiency_coarse_matrix, outcome_distribution, photon_counting
from qitools.protocols import (
    b92,
    bb84,
    mean_king,
    private_quantum_channel,
    probabilistic_processor,
    superdense,
    teleport,
)
from qitools.rand import haar_unitary, random_density, random_ket, random_kraus_ops
from qitools.states import BlochVector, State, from_bloch, purity, qubit_state, to_bloch, von_neumann_entropy


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:>2} FAIL  {title}")
        raise
    print(f"[acceptance] criterion {number:>2} PASS  {title}")


def test_criterion_01_bloch_geometry():
    with criterion(1, "Bloch geometry"):
        rng = np.random.default_rng(101)
        for _ in range(10):
            r = rng.standard_normal(3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            evals = np.sort(np.linalg.eigvalsh(qubit_state(r).matrix))
            n = np.linalg.norm(r)
            assert abs(evals[0] - (1 - n) / 2) < 1e-9
            assert abs(evals[1] - (1 + n) / 2) < 1e-9
        for _ in range(10):
            b = to_bloch(State.from_ket(random_ket(3, rng)))
            assert abs(b.norm - np.sqrt(2)) < 1e-9
            antipode = BlochVector(3, -b.components)
            with pytest.raises(ValueError):
                from_bloch(antipode)
            # the offending eigenvalue is (2 - d)/d = -1/3
            candidate = np.eye(3, dtype=complex)
            for coeff, op in zip(antipode.components, antipode.basis):
                candidate += coeff * op
            assert abs(np.linalg.eigvalsh(candidate / 3).min() + 1 / 3) < 1e-9


def test_criterion_02_discrimination():
    with criterion(2, "discrimination reference values"):
        psi1 = unit_ket([1, 0])
        psi2 = unit_ket([0.5, np.sqrt(0.75)])
        res = helstrom(State.from_ket(psi1), State.from_ket(psi2), eta=0.5)
        assert abs(res.p_error - 0.5 * (1 - np.sqrt(3) / 2)) < 1e-9
        res = unambiguous_two_pure(psi1, psi2, eta=0.5)
        assert abs(res.p_success - 0.5) < 1e-9
        rho1, rho2 = outer(psi1), outer(psi2)
        assert abs(np.trace(rho2 @ res.povm.effect("1"))) < 1e-10
        assert abs(np.trace(rho1 @ res.povm.effect("2"))) < 1e-10
        res = unambiguous_mixture_povm(psi1, psi2, q=0.5, eta=0.5)
        assert abs(res.p_success - 0.375) < 1e-12


def test_criterion_03_channel_representations():
    with criterion(3, "channel representation round trips"):
        rng = np.random.default_rng(103)
        for i in range(50):
            d = 2 if i % 2 == 0 else 3
            ch = KrausChannel(tuple(random_kraus_ops(d, rng)))
            back = from_choi(to_choi(ch))
            x = random_density(d, rng)
            assert np.abs(apply(ch, x) - apply(back, x)).max() < 1e-8
            assert abs(np.trace(to_chi(ch).matrix).real - d) < 1e-9
        for d in (2, 3):
            rep = to_choi(transposition_map(d))
            min_eig = np.linalg.eigvalsh(rep.matrix).min()
            assert abs(min_eig + 1 / d) < 1e-9


def test_criterion_04_qubit_cp_certification():
    with criterion(4, "qubit CP certification"):
        assert qubit_cp_check((1, 1, 1), (0, 0, 0))["cp"]
        assert not qubit_cp_check((-1, -1, -1), (0, 0, 0))["cp"]
        rep = qubit_cp_check((-1 / 3, -1 / 3, -1 / 3), (0, 0, 0))
        assert rep["cp"] and abs(rep["choi_min_eig"]) < 1e-9


def test_criterion_05_channel_distances():
    with criterion(5, "channel distances"):
        rng = np.random.default_rng(105)
        u = haar_unitary(2, rng)
        a0 = make("contraction", xi=State.maximally_mixed(2))
        value, _ = sup_distance(unitary_channel(u), a0, rng=105, restarts=16)
        assert abs(value - 0.5) < 1e-3
        p = 0.45
        dep = make("depolarizing", d=2, p=p)
        for _ in range(20):
            k1, k2 = random_ket(2, rng), random_ket(2, rng)
            r1, r2 = State.from_ket(k1), State.from_ket(k2)
            num = trace_distance(State(apply(dep, r1.matrix)), State(apply(dep, r2.matrix)))
            den = trace_distance(r1, r2)
            assert abs(num / den - (1 - p)) < 1e-9


def test_criterion_06_dilation_replay():
    with criterion(6, "Stinespring dilation and conjugates"):
        ops = tuple(m / np.sqrt(2) for m in (
            np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]]),
            np.array([[0, 0], [1, 0]]), np.array([[0, 0], [0, 1]]),
        ))
        full_dep = KrausChannel(ops)
        env_dim, u, env_ket = stinespring(full_dep)
        rng = np.random.default_rng(106)
        for _ in range(5):
            rho = random_density(2, rng)
            out = dilation_apply(env_dim, u, env_ket, rho)
            assert np.abs(out - apply(full_dep, rho)).max() < 1e-9
        for d in (2, 3):
            conj = conjugate(unitary_channel(haar_unitary(d, rng)))
            outs = [apply(conj, random_density(d, rng)) for _ in range(4)]
            for out in outs:
                assert np.abs(out - outs[0]).max() < 1e-9  # input independent
                assert abs(np.trace(out @ out).real - 1) < 1e-9  # pure


def test_criterion_07_instruments():
    with criterion(7, "instruments"):
        z = Povm.from_basis([unit_ket([1, 0]), unit_ket([0, 1])])
        x = Povm.from_basis([unit_ket([1, 1]), unit_ket([1, -1])])
        assert is_repeatable(luders(z))
        nontrivial = Povm((0, 1), (np.diag([0.8, 0.3]).astype(complex),
                                   np.diag([0.2, 0.7]).astype(complex)))
        assert not is_repeatable(trivial_instrument(nontrivial, State.maximally_mixed(2)))
        coupling = np.zeros((4, 4), dtype=complex)
        coupling[0, 0] = coupling[3, 2] = coupling[1, 1] = coupling[2, 3] = 1
        memo = MeasurementModel(2, State(np.diag([1.0, 0.0])), coupling, z)
        ins = memo_to_instrument(memo)
        rng = np.random.default_rng(107)
        rho = random_density(2, rng)
        for k in range(2):
            p = np.zeros((2, 2), dtype=complex)
            p[k, k] = 1
            assert np.abs(ins.apply(k, rho) - p @ rho @ p).max() < 1e-10
        assert luders_disturbs(z, x)
        diag_b = Povm((0, 1), (np.diag([0.6, 0.1]).astype(complex),
                               np.diag([0.4, 0.9]).astype(complex)))
        assert not luders_disturbs(z, diag_b)


def test_criterion_08_entanglement_battery():
    with criterion(8, "Werner battery, CHSH, reduction"):
        for d in (2, 3):
            for mu in np.arange(0.0, 1.0001, 0.1):
                rep = werner_report(d, mu)
                assert abs(rep["swap_expectation"] - (2 * mu - 1)) < 1e-10
                assert rep["ppt"] == (mu >= 0.5 - 1e-12)
                expected_min = min((2 * mu - 1) / d, (d + 1 - 2 * mu) / (d * (d * d - 1)))
                assert abs(rep["pt_min_eig"] - expected_min) < 1e-9
                assert rep["reduction_detects"] == (d == 2 and mu < 0.5 - 1e-12)
        singlet = BipartiteState(State.from_ket(unit_ket([0, 1, -1, 0])), 2, 2)
        s2 = 1 / np.sqrt(2)
        value = chsh_value(singlet, (1, 0, 0), (0, 1, 0), (s2, s2, 0), (s2, -s2, 0))
        assert abs(value - (2 - 2 * np.sqrt(2))) < 1e-9
        for d in (2, 3):
            _, e1, e2 = reduction_criterion(maximally_entangled_state(d))
            assert abs(min(e1, e2) - (1 - d) / d) < 1e-9


def test_criterion_09_tiles_upb():
    with criterion(9, "tiles UPB bound entanglement"):
        kets = tiles_upb()
        gram = np.array([[inner(a, b) for b in kets] for a in kets])
        assert np.abs(gram - np.eye(5)).max() < 1e-12
        rho = upb_state()
        is_ppt, min_eig = ppt(rho)
        assert is_ppt and min_eig >= -1e-9
        eps = upb_epsilon(rng=109, restarts=200)
        assert eps > 0
        witness = upb_witness(rng=109, restarts=200)
        value, verdict = witness_evaluate(witness, rho)
        assert verdict == "entangled"
        assert abs(value + eps / 4) < 1e-9
        assert value < -1e-4


def test_criterion_10_protocols():
    with criterion(10, "protocol battery"):
        rng = np.random.default_rng(110)
        for d in (2, 3):
            rep = teleport(State(random_density(d, rng)), rng=0)
            for rec in rep.records:
                assert abs(rec["probability"] - 1 / d**2) < 1e-9
                assert abs(rec["fidelity"] - 1) < 1e-9
        for message in range(4):
            rep = superdense(message)
            assert rep.summary["decoded"] == message
            assert abs(rep.summary["decode_probability"] - 1) < 1e-9
            marginal = np.array(rep.summary["intercepted_marginal"])
            assert np.abs(marginal - np.eye(2) / 2).max() < 1e-10
        rep = bb84(20000, eve="none", rng=7)
        assert rep.summary["qber"] == 0.0
        rep = bb84(20000, eve="intercept_resend", rng=7)
        assert abs(rep.summary["qber"] - 0.25) <= 0.02
        rep = b92(20000, 0.5, rng=7)
        assert rep.summary["conclusive_errors"] == 0
        assert abs(rep.summary["conclusive_rate"] - 0.5) <= 0.02
        rep = private_quantum_channel(2, 4, rng=7)
        assert rep.summary["keyless_choi_deviation"] < 1e-9
        rep = mean_king()
        table = np.array(rep.summary["table"])
        expected = 0.5 * np.array(
            [
                [1, 0, 1, 0, 0, 1],
                [0, 1, 0, 1, 0, 1],
                [0, 1, 1, 0, 1, 0],
                [1, 0, 0, 1, 1, 0],
            ]
        )
        assert np.abs(table - expected).max() < 1e-9
        assert rep.summary["success_probability"] == 1.0
        rep = probabilistic_processor(2, haar_unitary(2, rng), rng=110)
        assert abs(rep.summary["p_success"] - 0.25) < 1e-9
        assert rep.summary["min_fidelity"] > 1 - 1e-9


def test_criterion_11_photon_counting():
    with criterion(11, "photon counting coarse-graining"):
        cutoff = 20
        n_low = photon_counting(0.3, cutoff)
        n_high = photon_counting(0.6, cutoff)
        mu = efficiency_coarse_matrix(0.3, 0.6, cutoff)
        for n in range(cutoff + 1):
            rebuilt = sum(mu[k, n] * n_high.effects[k] for k in range(cutoff + 1))
            assert np.abs(rebuilt - n_low.effects[n]).max() < 1e-9
        # ideal counting separates the one- and two-photon states strictly
        # better than the 50% counter
        zeta1 = State(np.diag([0.0, 1.0, 0.0, 0.0]))
        zeta2 = State(np.diag([0.0, 0.0, 1.0, 0.0]))
        ideal = photon_counting(1.0, 3)
        lossy = photon_counting(0.5, 3)
        k_ideal = prob_distances(
            outcome_distribution(ideal, zeta1), outcome_distribution(ideal, zeta2)
        )[1]
        k_lossy = prob_distances(
            outcome_distribution(lossy, zeta1), outcome_distribution(lossy, zeta2)
        )[1]
        assert k_ideal > k_lossy + 0.1


def test_criterion_12_property_suites():
    with criterion(12, "sampled property suites"):
        rng = np.random.default_rng(112)
        # contractivity / fidelity monotonicity over 100 channels
        for i in range(100):
            d = 2 if i % 2 == 0 else 3
            ch = KrausChannel(tuple(random_kraus_ops(d, rng)))
            r1, r2 = State(random_density(d, rng)), State(random_density(d, rng))
            o1, o2 = State(apply(ch, r1.matrix)), State(apply(ch, r2.matrix))
            assert trace_distance(o1, o2) <= trace_distance(r1, r2) + 1e-9
            assert fidelity(o1, o2) >= fidelity(r1, r2) - 1e-9
        # purity convexity, entropy concavity
        for _ in range(50):
            r1, r2 = random_density(3, rng), random_density(3, rng)
            lam = rng.uniform()
            mix = lam * r1 + (1 - lam) * r2
            assert purity(mix) <= lam * purity(r1) + (1 - lam) * purity(r2) + 1e-9
            assert von_neumann_entropy(State(mix)) >= (
                lam * von_neumann_entropy(State(r1))
                + (1 - lam) * von_neumann_entropy(State(r2))
                - 1e-9
            )
        # PPT invariance under 50 separable Kraus channels
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            sep = sum(
                w[j] * tensor(random_density(2, rng, rank=1), random_density(2, rng, rank=1))
                for j in range(3)
            )
            ka = random_kraus_ops(2, rng)
            kb = random_kraus_ops(2, rng)
            ch = KrausChannel(tuple(tensor(a, b) for a in ka for b in kb))
            out = apply(ch, sep)
            assert ppt(BipartiteState(State(out), 2, 2))[0]
        # twirl commutes with U (x) U and matches the Haar Monte Carlo
        x = random_density(4, rng)
        for _ in range(100):
            u = haar_unitary(2, rng)
            uu = tensor(u, u)
            assert np.abs(twirl(uu @ x @ dag(uu)) - uu @ twirl(x) @ dag(uu)).max() < 1e-8
        mc = twirl_monte_carlo(x, 2, samples=100000, rng=rng)
        assert np.abs(mc - twirl(x)).max() < 1e-2
