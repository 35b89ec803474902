import numpy as np
import pytest

from qitools.linalg import dag, is_projection, outer
from qitools.observables import (
    Effect,
    Povm,
    coarse_grain,
    commuting_joint,
    efficiency_coarse_matrix,
    has_unit_eigenvalue,
    is_informationally_complete,
    is_sharp,
    mean_variance,
    minimal_ic_povm,
    outcome_distribution,
    photon_counting,
    sharp_operator,
    stern_gerlach,
)
from qitools.rand import haar_unitary, random_density
from qitools.states import PAULIS, State, qubit_state


def basis_povm(d, rng=None):
    u = haar_unitary(d, rng) if rng is not None else np.eye(d, dtype=complex)
    return Povm.from_basis([u[:, [j]] for j in range(d)])


def test_effect_validation():
    Effect(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        Effect(np.diag([1.5, 0.0]))
    with pytest.raises(ValueError):
        Effect(np.diag([-0.1, 0.0]))


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm((0, 1), (np.diag([0.5, 0.5]), np.diag([0.4, 0.5])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_effect_and_povm_reject_non_finite_entries(bad):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = bad
    with pytest.raises(ValueError, match=r"effect\[1\]: entries must be finite"):
        Effect(m)
    with pytest.raises(ValueError, match=r"POVM effect 1\[1\]: entries must be finite"):
        Povm((0, 1), (np.diag([0.5, 0.5]), m))


def test_stern_gerlach_probabilities():
    rng = np.random.default_rng(0)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    r = 0.7 * rng.standard_normal(3)
    r /= max(1.0, np.linalg.norm(r) / 0.9)
    p = outcome_distribution(stern_gerlach(n), qubit_state(r))
    assert np.allclose(p, [(1 + r @ n) / 2, (1 - r @ n) / 2])


def test_sharp_basis_povm_deterministic():
    a = basis_povm(3)
    p = outcome_distribution(a, State(np.diag([0.0, 1.0, 0.0])))
    assert np.allclose(p, [0, 1, 0])


def test_outcome_distribution_affine():
    rng = np.random.default_rng(1)
    a = basis_povm(3, rng)
    r1, r2 = random_density(3, rng), random_density(3, rng)
    lam = 0.3
    p_mix = outcome_distribution(a, State(lam * r1 + (1 - lam) * r2))
    p1 = outcome_distribution(a, State(r1))
    p2 = outcome_distribution(a, State(r2))
    assert np.allclose(p_mix, lam * p1 + (1 - lam) * p2)


def test_is_sharp():
    assert is_sharp(basis_povm(3))
    assert is_sharp(Povm((0,), (np.eye(2),)))
    assert not is_sharp(minimal_ic_povm(2))


def test_informational_completeness():
    assert is_informationally_complete(minimal_ic_povm(2))
    assert is_informationally_complete(minimal_ic_povm(3))
    assert not is_informationally_complete(basis_povm(3))
    assert not is_informationally_complete(Povm((0,), (np.eye(2),)))


def test_minimal_ic_construction():
    for d in (2, 3):
        a = minimal_ic_povm(d)
        assert len(a.outcomes) == d * d
        for e in a.effects:
            assert np.linalg.matrix_rank(e, tol=1e-9) == 1
        total = sum(e for e in a.effects)
        assert np.abs(total - np.eye(d)).max() < 1e-9


def test_minimal_ic_renormalizer_invertible():
    # T >= I so T is invertible
    d = 3
    eye = np.eye(d, dtype=complex)
    kets = []
    for j in range(d):
        for k in range(d):
            if j == k:
                kets.append(eye[:, [j]])
            elif j > k:
                kets.append((eye[:, [j]] + eye[:, [k]]) / np.sqrt(2))
            else:
                kets.append((eye[:, [j]] + 1j * eye[:, [k]]) / np.sqrt(2))
    t = sum(outer(k) for k in kets)
    assert np.linalg.eigvalsh(t).min() >= 1 - 1e-9


def test_ic_povm_has_no_zero_one_effect():
    # surrogate for the necessary condition on informational completeness
    a = minimal_ic_povm(3)
    for e in a.effects:
        evals = np.linalg.eigvalsh(e)
        assert not (evals.min() < 1e-7 and evals.max() > 1 - 1e-7)


def test_coarse_grain_identity():
    a = basis_povm(2)
    b = coarse_grain(a, np.eye(2))
    for ea, eb in zip(a.effects, b.effects):
        assert np.allclose(ea, eb)


def test_coarse_grain_qubit_formula():
    direction = np.array([0.0, 0.0, 1.0])
    a = stern_gerlach(direction)
    nu = np.array([[0.8, 0.2], [0.3, 0.7]])
    b = coarse_grain(a, nu)
    beta = nu[0, 0] + nu[1, 0]
    bvec = (nu[0, 0] - nu[1, 0]) * direction
    sigma = bvec[0] * PAULIS[1] + bvec[1] * PAULIS[2] + bvec[2] * PAULIS[3]
    assert np.abs(b.effects[0] - (beta * np.eye(2) + sigma) / 2).max() < 1e-12


def test_coarse_grain_merge_all():
    a = basis_povm(3)
    b = coarse_grain(a, np.ones((3, 1)))
    assert np.allclose(b.effects[0], np.eye(3))


def test_coarse_grain_rejects_non_stochastic():
    with pytest.raises(ValueError):
        coarse_grain(basis_povm(2), np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_coarse_grain_rejects_a_nan_row_as_not_stochastic():
    with pytest.raises(ValueError, match=r"^matrix is not stochastic"):
        coarse_grain(basis_povm(2), np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_photon_counting_extremes():
    ideal = photon_counting(1.0, 4)
    for n, e in zip(ideal.outcomes, ideal.effects):
        target = np.zeros(5)
        target[n] = 1
        assert np.allclose(np.diag(e).real, target)
    trivial = photon_counting(0.0, 4)
    assert np.allclose(trivial.effects[0], np.eye(5))


def test_photon_counting_binomial_entry():
    obs = photon_counting(0.5, 4)
    assert abs(obs.effects[1][2, 2].real - 0.5) < 1e-12


def test_efficiency_coarse_matrix():
    mu = efficiency_coarse_matrix(0.3, 0.6, 20)
    assert abs(mu[0, 0] - 1) < 1e-15
    assert np.abs(mu.sum(axis=1) - 1).max() < 1e-12
    n1 = photon_counting(0.3, 20)
    n2 = photon_counting(0.6, 20)
    for n in range(21):
        rebuilt = sum(mu[k, n] * n2.effects[k] for k in range(21))
        assert np.abs(rebuilt - n1.effects[n]).max() < 1e-9
    assert np.allclose(efficiency_coarse_matrix(0.4, 0.4, 5), np.eye(6))


def test_efficiency_coarse_matrix_rejects_wrong_order():
    with pytest.raises(ValueError):
        efficiency_coarse_matrix(0.7, 0.4, 5)


def test_mean_variance_sharp_qubit():
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    r = np.array([0.2, -0.3, 0.4])
    a = stern_gerlach(direction)
    mean, var = mean_variance(a, qubit_state(r))
    assert abs(mean - r @ direction) < 1e-12
    # sharp-operator route agrees
    op = sharp_operator(a)
    rho = qubit_state(r).matrix
    assert abs(mean - np.trace(rho @ op).real) < 1e-12
    assert abs(var - (np.trace(rho @ op @ op).real - mean**2)) < 1e-12


def test_mean_variance_total_mixture():
    a = stern_gerlach([0, 0, 1])
    mean, var = mean_variance(a, State.maximally_mixed(2))
    assert abs(mean) < 1e-12 and abs(var - 1) < 1e-12


def test_mean_variance_rejects_labels():
    a = Povm(("up", "down"), stern_gerlach([0, 0, 1]).effects)
    with pytest.raises(ValueError):
        mean_variance(a, State.maximally_mixed(2))


def test_commuting_joint_margins():
    rng = np.random.default_rng(3)
    diag_a = np.diag(rng.uniform(0, 1, size=3)).astype(complex)
    diag_b = np.diag(rng.uniform(0, 1, size=3)).astype(complex)
    joint = commuting_joint(diag_a, diag_b)
    assert np.abs(joint.subset_effect([1, 3]) - diag_a).max() < 1e-12
    assert np.abs(joint.subset_effect([1, 2]) - diag_b).max() < 1e-12


def test_commuting_joint_identity_halves():
    half = np.eye(2, dtype=complex) / 2
    joint = commuting_joint(half, half)
    for e in joint.effects:
        assert np.allclose(e, np.eye(2) / 4)


def test_commuting_joint_projections_sharp():
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 0.0]).astype(complex)
    joint = commuting_joint(p, q)
    assert is_sharp(joint)


def test_commuting_joint_rejects_noncommuting():
    with pytest.raises(ValueError):
        commuting_joint(PAULIS[1] / 2 + np.eye(2) / 2, PAULIS[3] / 2 + np.eye(2) / 2)


def test_monotone_and_modular():
    a = minimal_ic_povm(2)
    outs = a.outcomes
    x = outs[:1]
    y = outs[:3]
    ex = a.subset_effect(x)
    ey = a.subset_effect(y)
    assert np.linalg.eigvalsh(ey - ex).min() > -1e-12
    union = a.subset_effect(outs[:3])
    inter = a.subset_effect(outs[1:2])
    lhs = union + inter
    rhs = a.subset_effect(outs[:2]) + a.subset_effect(outs[1:3])
    assert np.abs(lhs - rhs).max() < 1e-12


def test_probability_one_iff_invariant():
    # for an effect E and pure rho: tr[rho E] = 1 iff E rho = rho
    e = np.diag([1.0, 0.4]).astype(complex)
    rho_fixed = np.diag([1.0, 0.0]).astype(complex)
    assert abs(np.trace(rho_fixed @ e).real - 1) < 1e-12
    assert np.abs(e @ rho_fixed - rho_fixed).max() < 1e-12
    psi = np.array([[np.sqrt(0.5)], [np.sqrt(0.5)]], dtype=complex)
    rho = psi @ dag(psi)
    assert np.trace(rho @ e).real < 1 - 1e-6
    assert np.abs(e @ rho - rho).max() > 1e-6


def test_sharp_povm_at_most_d_nonzero_effects():
    d = 3
    a = Povm.from_basis(np.eye(d, dtype=complex).T.reshape(d, d, 1))
    nonzero = [e for e in a.effects if np.abs(e).max() > 1e-12]
    assert len(nonzero) <= d
    assert all(is_projection(e) for e in nonzero)


def test_has_unit_eigenvalue():
    assert has_unit_eigenvalue(np.diag([1.0, 0.3]))
    assert not has_unit_eigenvalue(np.diag([0.9, 0.3]))
    with pytest.raises(ValueError, match="not Hermitian"):
        has_unit_eigenvalue([[1, 7], [0, 0.2]])  # its lower triangle has eigenvalue 1


def test_every_function_taking_an_effect_reads_an_effect():
    e, f = Effect(np.diag([1.0, 0.3])), Effect(np.diag([0.5, 0.5]))
    assert has_unit_eigenvalue(e) and not has_unit_eigenvalue(f)
    joint = commuting_joint(e, f.matrix).effects
    assert np.array_equal(joint, commuting_joint(e.matrix, f).effects)
    povm = Povm((0, 1), [e, np.eye(2) - e.matrix]).effects
    assert np.array_equal(povm, Povm((0, 1), [e.matrix, np.eye(2) - e.matrix]).effects)
