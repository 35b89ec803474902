import numpy as np
import pytest

from qitools.channels import KrausChannel, apply
from qitools.discrimination import trace_distance
from qitools.entanglement import (
    BipartiteState,
    Witness,
    _upb_projector,
    certify_witness,
    chsh_operator,
    chsh_value,
    chsh_witness,
    majorization_convertible,
    max_entangled_fraction,
    maximally_entangled_ket,
    maximally_entangled_state,
    partial_transpose,
    peres_horodecki,
    ppt,
    reduction_criterion,
    schmidt,
    swap_operator,
    sym_antisym,
    tiles_upb,
    twirl,
    twirl_monte_carlo,
    upb_epsilon,
    upb_projector,
    upb_state,
    upb_witness,
    werner,
    werner_report,
    witness_evaluate,
)
from qitools.linalg import dag, inner, outer, partial_trace as ptrace, tensor, unit_ket
from qitools.rand import haar_unitary, random_density, random_ket, random_kraus_ops
from qitools.states import State

S2 = 1 / np.sqrt(2)
CHSH_VECTORS = ((1, 0, 0), (0, 1, 0), (S2, S2, 0), (S2, -S2, 0))


def singlet() -> BipartiteState:
    ket = unit_ket([0, 1, -1, 0])
    return BipartiteState(State.from_ket(ket), 2, 2)


def random_separable(dA, dB, rng, terms=4):
    m = np.zeros((dA * dB, dA * dB), dtype=complex)
    w = rng.dirichlet(np.ones(terms))
    for j in range(terms):
        m += w[j] * tensor(random_density(dA, rng, rank=1), random_density(dB, rng, rank=1))
    return BipartiteState(State(m), dA, dB)


def test_schmidt_product_and_bell():
    rng = np.random.default_rng(0)
    prod = tensor(random_ket(2, rng), random_ket(3, rng))
    data = schmidt(prod, 2, 3)
    assert data.rank == 1 and not data.is_entangled()
    data = schmidt(maximally_entangled_ket(3), 3, 3)
    assert np.allclose(data.coefficients, np.ones(3) / np.sqrt(3))
    assert data.is_entangled()


def test_schmidt_reconstruction_and_reduced_spectra():
    rng = np.random.default_rng(1)
    psi = random_ket(6, rng)
    data = schmidt(psi, 2, 3)
    rebuilt = data.reconstruct()
    phase = inner(rebuilt, psi)
    assert abs(abs(phase) - 1) < 1e-9
    rho = outer(psi)
    spec_a = np.sort(np.linalg.eigvalsh(ptrace(rho, 2, 3, "B")))[::-1]
    spec_b = np.sort(np.linalg.eigvalsh(ptrace(rho, 2, 3, "A")))[::-1]
    assert np.abs(spec_a[:2] - data.squares[:2]).max() < 1e-9
    assert np.abs(spec_b[: data.rank] - data.squares).max() < 1e-9


def test_partial_transpose_is_involution_and_blockwise():
    rng = np.random.default_rng(2)
    m = random_density(6, rng)
    for side in "AB":
        assert np.allclose(partial_transpose(partial_transpose(m, 2, 3, side), 2, 3, side), m)
    full = partial_transpose(partial_transpose(m, 2, 3, "A"), 2, 3, "B")
    assert np.allclose(full, m.T)


def test_ppt_separable_states():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sep = random_separable(2, 2, rng)
        is_ppt, _ = ppt(sep)
        assert is_ppt


def test_ppt_bell_state():
    _, min_eig = ppt(maximally_entangled_state(2))
    assert abs(min_eig + 0.5) < 1e-12
    # PT of P+ is the swap over d, spectrum +-1/d
    d = 3
    pt = partial_transpose(maximally_entangled_state(d).matrix, d, d)
    assert np.abs(pt - swap_operator(d) / d).max() < 1e-12


def test_peres_horodecki():
    assert peres_horodecki(maximally_entangled_state(2)) == "entangled"
    assert peres_horodecki(BipartiteState(State.maximally_mixed(4), 2, 2)) == "separable"
    assert peres_horodecki(werner(2, 0.4)) == "entangled"
    assert peres_horodecki(werner(2, 0.6)) == "separable"
    with pytest.raises(ValueError):
        peres_horodecki(werner(3, 0.4))


def test_reduction_criterion():
    detected, e1, e2 = reduction_criterion(maximally_entangled_state(3))
    assert detected
    assert abs(min(e1, e2) - (1 - 3) / 3) < 1e-9
    rng = np.random.default_rng(4)
    detected, e1, e2 = reduction_criterion(random_separable(2, 3, rng))
    assert not detected and min(e1, e2) > -1e-9
    # entangled Werner states at d = 3 escape the reduction test
    assert not reduction_criterion(werner(3, 0.1))[0]


def test_chsh_on_singlet_and_products():
    value = chsh_value(singlet(), *CHSH_VECTORS)
    assert abs(value - (2 - 2 * np.sqrt(2))) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(10):
        prod = BipartiteState(
            State(tensor(random_density(2, rng), random_density(2, rng))), 2, 2
        )
        assert chsh_value(prod, *CHSH_VECTORS) >= -1e-9


def test_chsh_direct_expectation_oracle():
    # direct matrix expectation for a = b, a' = b' orthogonal pair
    from qitools.entanglement import chsh_operator

    a = (1, 0, 0)
    ap = (0, 0, 1)
    bell = chsh_operator(a, ap, a, ap)
    expectation = np.trace(singlet().matrix @ bell).real
    assert abs(chsh_value(singlet(), a, ap, a, ap) - (2 - abs(expectation))) < 1e-12
    # singlet expectation of (x.sigma)(x)(y.sigma) is -x.y, so the two
    # Bell-operator terms cancel for this aligned orthogonal pair
    assert abs(expectation) < 1e-12


def test_chsh_witness_detects_singlet():
    w = chsh_witness(*CHSH_VECTORS, rng=0)
    value, verdict = witness_evaluate(w, singlet())
    assert verdict == "entangled" and abs(value - (2 - 2 * np.sqrt(2))) < 1e-9
    rng = np.random.default_rng(6)
    for _ in range(5):
        value, verdict = witness_evaluate(w, random_separable(2, 2, rng))
        assert value >= -1e-9


def test_witness_rejects_psd_or_uncertified():
    with pytest.raises(ValueError):
        Witness(np.eye(4), 0.0, 0.5)  # PSD, min eigenvalue not negative
    with pytest.raises(ValueError):
        witness_evaluate(np.eye(4), singlet())


def test_certify_witness_rejects_malformed_operators():
    w = 2 * np.eye(4, dtype=complex) + chsh_operator(*CHSH_VECTORS)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 3] = 0.5j
    with pytest.raises(ValueError, match="witness is not Hermitian"):
        certify_witness(w + skew, 2, 2, restarts=4)
    nan = w.copy()
    nan[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"witness\[6\]: entries must be finite"):
        certify_witness(nan, 2, 2, restarts=4)
    with pytest.raises(ValueError, match="witness shape does not match the declared dimensions"):
        certify_witness(np.eye(3), 2, 2, restarts=4)


def test_certify_witness_keeps_a_valid_operator_as_given():
    w = 2 * np.eye(4, dtype=complex) + chsh_operator(*CHSH_VECTORS)
    w[0, 3] += 1e-13j  # Hermitian within ATOL, not exactly
    witness = certify_witness(w, 2, 2, restarts=4)
    assert np.array_equal(witness.matrix, w)
    assert witness.min_eigenvalue == np.linalg.eigvalsh((w + dag(w)) / 2).min()


def test_max_entangled_fraction():
    assert abs(max_entangled_fraction(maximally_entangled_state(2), rng=0, restarts=8) - 1) < 1e-6
    prod = BipartiteState(State.from_ket(tensor(unit_ket([1, 0]), unit_ket([0, 1]))), 2, 2)
    assert abs(max_entangled_fraction(prod, rng=0, restarts=8) - 0.5) < 1e-6
    # PPT states never exceed 1/d
    value = max_entangled_fraction(werner(2, 0.7), rng=0, restarts=8)
    assert value <= 0.5 + 1e-6


def test_werner_swap_expectation_and_reductions():
    for d in (2, 3):
        for mu in (0.0, 0.3, 0.5, 0.8, 1.0):
            w = werner(d, mu)
            _, _, v = sym_antisym(d)
            assert abs(np.trace(v @ w.matrix).real - (2 * mu - 1)) < 1e-10
            assert np.abs(w.reduced("A").matrix - np.eye(d) / d).max() < 1e-10
    p_plus, _, _ = sym_antisym(2)
    assert np.abs(werner(2, 1.0).matrix - p_plus / 3).max() < 1e-12


def test_werner_report_thresholds():
    for d in (2, 3):
        for mu in np.arange(0, 1.01, 0.1):
            rep = werner_report(d, mu)
            assert rep["ppt"] == (mu >= 0.5 - 1e-12)
            assert rep["separable"] == (mu >= 0.5)
            expected_min = min((2 * mu - 1) / d, (d + 1 - 2 * mu) / (d * (d**2 - 1)))
            assert abs(rep["pt_min_eig"] - expected_min) < 1e-9
            assert rep["reduction_detects"] == (d == 2 and mu < 0.5 - 1e-12)


def test_sym_antisym_ranks():
    for d in (2, 3):
        p_plus, p_minus, v = sym_antisym(d)
        assert abs(np.trace(p_plus).real - d * (d + 1) / 2) < 1e-12
        assert abs(np.trace(p_minus).real - d * (d - 1) / 2) < 1e-12
        assert np.abs(p_plus + p_minus - np.eye(d * d)).max() < 1e-12
        assert np.abs(p_plus @ p_minus).max() < 1e-12


def test_antisymmetric_kets_are_entangled():
    # every basis ket of the antisymmetric subspace has Schmidt rank >= 2
    d = 3
    _, p_minus, _ = sym_antisym(d)
    vals, vecs = np.linalg.eigh(p_minus)
    for j in range(d * d):
        if vals[j] > 0.5:
            data = schmidt(vecs[:, [j]], d, d)
            assert data.rank >= 2 and data.squares[1] > 1e-12


def test_twirl_fixes_werner_and_projects():
    w = werner(3, 0.3)
    assert np.abs(twirl(w.matrix) - w.matrix).max() < 1e-12
    # twirl of P+ lands on the Werner state with mu = tr[P_sym P+]
    d = 3
    p_plus, _, _ = sym_antisym(d)
    rho = maximally_entangled_state(d).matrix
    mu = float(np.clip(np.trace(p_plus @ rho).real, 0, 1))
    assert abs(mu - 1) < 1e-12  # the canonical maximally entangled ket is symmetric
    assert np.abs(twirl(rho) - werner(d, mu).matrix).max() < 1e-9


def test_twirl_commutes_with_uu():
    rng = np.random.default_rng(7)
    x = random_density(4, rng)
    for _ in range(20):
        u = haar_unitary(2, rng)
        uu = tensor(u, u)
        assert np.abs(twirl(uu @ x @ dag(uu)) - uu @ twirl(x) @ dag(uu)).max() < 1e-8


def test_twirl_monte_carlo_agreement():
    rng = np.random.default_rng(8)
    x = random_density(4, rng)
    mc = twirl_monte_carlo(x, 2, samples=20000, rng=rng)
    assert np.abs(mc - twirl(x)).max() < 2e-2


def test_majorization():
    rng = np.random.default_rng(9)
    psi_plus = maximally_entangled_ket(3)
    target = random_ket(9, rng)
    assert majorization_convertible(psi_plus, target, 3, 3)
    prod = tensor(random_ket(3, rng), random_ket(3, rng))
    ent = maximally_entangled_ket(3)
    assert not majorization_convertible(prod, ent, 3, 3)


def test_majorization_asymmetric_pair():
    e = np.eye(3)
    psi1 = (tensor(e[:, [1]], e[:, [1]]) + tensor(e[:, [2]], e[:, [2]])) / np.sqrt(2)
    for q in (0.5, 0.6, 0.9):
        psi2 = np.sqrt(q) * tensor(e[:, [0]], e[:, [0]]) + np.sqrt(1 - q) * tensor(
            e[:, [1]], e[:, [1]]
        )
        assert majorization_convertible(psi1, psi2, 3, 3)
        reverse = majorization_convertible(psi2, psi1, 3, 3)
        assert reverse == (abs(q - 0.5) < 1e-12)


def test_tiles_upb_gram():
    kets = tiles_upb()
    gram = np.array([[inner(a, b) for b in kets] for a in kets])
    assert np.abs(gram - np.eye(5)).max() < 1e-12


def test_tiles_projector_is_built_once_and_handed_out_as_a_fresh_copy():
    _upb_projector.cache_clear()
    first = upb_projector()
    assert upb_epsilon(rng=109) == 0.028416213335730276
    upb_witness(rng=0, restarts=20)
    assert _upb_projector.cache_info().misses == 1
    held = _upb_projector()
    assert not held.flags.writeable
    assert first.flags.writeable and first is not held and upb_projector() is not first
    first[:] = 0  # a caller's copy is its own
    assert np.array_equal(upb_projector(), held)
    assert np.abs(held @ held - held).max() < 1e-15 and abs(np.trace(held).real - 5) < 1e-14


def test_upb_state_is_ppt_entangled():
    rho = upb_state()
    is_ppt, min_eig = ppt(rho)
    assert is_ppt and min_eig > -1e-9
    eps = upb_epsilon(rng=0, restarts=60)
    assert eps > 1e-4
    w = upb_witness(rng=0, restarts=60)
    value, verdict = witness_evaluate(w, rho)
    assert verdict == "entangled"
    assert abs(value + eps / 4) < 1e-9


def test_upb_witness_nonnegative_on_separables():
    w = upb_witness(rng=0, restarts=60)
    rng = np.random.default_rng(10)
    for _ in range(10):
        value, _ = witness_evaluate(w, random_separable(3, 3, rng))
        assert value >= -1e-9


def test_ppt_invariant_under_separable_channels():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sep = random_separable(2, 2, rng)
        ka = random_kraus_ops(2, rng)
        kb = random_kraus_ops(2, rng)
        ch = KrausChannel(tuple(tensor(a, b) for a in ka for b in kb))
        out = apply(ch, sep.matrix)
        assert ppt(BipartiteState(State(out), 2, 2))[0]


def test_pure_reduced_state_implies_product():
    rng = np.random.default_rng(12)
    psi = random_ket(2, rng)
    rho_b = random_density(3, rng)
    joint = BipartiteState(State(tensor(outer(psi), rho_b)), 2, 3)
    assert joint.reduced("A").is_pure()
    product = tensor(joint.reduced("A").matrix, joint.reduced("B").matrix)
    assert trace_distance(joint.state, State(product)) < 1e-9


def test_pure_bipartite_reduced_spectra_agree():
    rng = np.random.default_rng(13)
    psi = random_ket(6, rng)
    joint = BipartiteState(State.from_ket(psi), 2, 3)
    sa = np.sort(np.linalg.eigvalsh(joint.reduced("A").matrix))[::-1]
    sb = np.sort(np.linalg.eigvalsh(joint.reduced("B").matrix))[::-1]
    assert np.abs(sa[:2] - sb[:2]).max() < 1e-9


def test_teleportation_identity():
    rng = np.random.default_rng(14)
    for d in (2, 3):
        psi = maximally_entangled_ket(d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = (dag(psi) @ tensor(np.eye(d), x) @ psi)[0, 0]
        assert abs(lhs - np.trace(x) / d) < 1e-12
