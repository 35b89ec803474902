from dataclasses import fields

import numpy as np
import pytest

from qitools.discrimination import (
    DiscriminationResult,
    fidelity,
    helstrom,
    idp_bound,
    prob_distances,
    trace_distance,
    unambiguous_feasible,
    unambiguous_mixture_povm,
    unambiguous_two_pure,
)
from qitools.linalg import dag, inner, outer, unit_ket
from qitools.rand import haar_unitary, random_density, random_ket, random_kraus_ops
from qitools.states import State


def pure_pair_with_overlap(c):
    """Two real kets with <psi1|psi2> = c."""
    psi1 = unit_ket([1, 0])
    psi2 = unit_ket([c, np.sqrt(1 - c**2)])
    return psi1, psi2


def test_prob_distances():
    assert prob_distances([0.5, 0.5], [0.5, 0.5]) == (0.0, 0.0, 1.0)
    m, k, f = prob_distances([1, 0], [0, 1])
    assert (m, k, f) == (1.0, 1.0, 0.0)
    m, k, f = prob_distances([0.75, 0.25], [0.5, 0.5])
    assert abs(k - 0.25) < 1e-12
    assert abs(f - (np.sqrt(3 / 8) + np.sqrt(1 / 8))) < 1e-12
    with pytest.raises(ValueError):
        prob_distances([1, 0], [1, 0, 0])


@pytest.mark.parametrize("p, q", [([np.nan, 1], [0.5, 0.5]), ([0.5, 0.5], [1, np.nan])])
def test_prob_distances_rejects_nan(p, q):
    with pytest.raises(ValueError, match="^inputs must be probability vectors$"):
        prob_distances(p, q)


def test_trace_distance_pure_pairs():
    psi1, psi2 = pure_pair_with_overlap(0.0)
    assert abs(trace_distance(State.from_ket(psi1), State.from_ket(psi2)) - 1) < 1e-12
    rho = State(random_density(3, np.random.default_rng(0)))
    assert trace_distance(rho, rho) < 1e-12
    psi1, psi2 = pure_pair_with_overlap(0.6)
    d = trace_distance(State.from_ket(psi1), State.from_ket(psi2))
    assert abs(d - np.sqrt(1 - 0.36)) < 1e-12


def test_trace_distance_of_two_stacks_is_one_distance_per_member():
    rng = np.random.default_rng(3)
    r1 = np.stack([random_density(3, rng) for _ in range(4)])
    r2 = np.stack([random_density(3, rng) for _ in range(4)])
    dist = trace_distance(r1, r2)
    assert dist.shape == (4,)
    assert dist.tolist() == [trace_distance(a, b) for a, b in zip(r1, r2)]
    half = np.stack([np.diag([1.0, 0.0]), np.diag([0.5, 0.5])])
    assert trace_distance(half, half[::-1]).tolist() == [0.5, 0.5]  # not their sum, 1.0
    assert isinstance(trace_distance(r1[0], r2[0]), float)


def test_trace_distance_rejects_a_non_hermitian_difference():
    # eigvalsh would read the lower triangle alone and return 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_distance([[1, 5], [0, 0]], np.eye(2) / 2)


def test_fidelity_basic():
    rng = np.random.default_rng(1)
    rho = State(random_density(3, rng))
    assert abs(fidelity(rho, rho) - 1) < 1e-9
    psi1, psi2 = pure_pair_with_overlap(0.0)
    assert fidelity(State.from_ket(psi1), State.from_ket(psi2)) < 1e-9


def test_fidelity_of_a_stack_equals_the_matrix_calls():
    rng = np.random.default_rng(4)
    stack = np.array([random_density(3, rng) for _ in range(5)])
    other = random_density(3, rng)
    first = fidelity(stack, other)
    assert first.shape == (5,)
    assert [first[k] for k in range(5)] == [fidelity(m, other) for m in stack]
    second = fidelity(other, stack)
    assert [second[k] for k in range(5)] == [fidelity(other, m) for m in stack]
    paired = fidelity(stack, stack[::-1])
    assert [paired[k] for k in range(5)] == [fidelity(a, b) for a, b in zip(stack, stack[::-1])]
    assert isinstance(fidelity(stack[0], other), float)
    with pytest.raises(ValueError, match="states must share a dimension"):
        fidelity(stack, np.eye(2) / 2)


def test_fidelity_of_a_stack_rejects_a_bad_member_with_the_matrix_message():
    good = np.eye(2) / 2
    for bad in (np.array([[0.5, 0.5], [0, 0.5]]), np.diag([1.5, -0.5])):
        with pytest.raises(ValueError) as single:
            fidelity(bad, good)
        with pytest.raises(ValueError) as stacked:
            fidelity(np.array([good, bad]), good)
        assert str(stacked.value) == str(single.value)


def test_fidelity_pure_vs_mixed():
    rng = np.random.default_rng(2)
    psi = random_ket(3, rng)
    rho = random_density(3, rng)
    f = fidelity(State.from_ket(psi), State(rho))
    assert abs(f - np.sqrt((dag(psi) @ rho @ psi)[0, 0].real)) < 5e-9


def test_fidelity_symmetric_and_unitary_invariant():
    rng = np.random.default_rng(3)
    r1, r2 = State(random_density(3, rng)), State(random_density(3, rng))
    assert abs(fidelity(r1, r2) - fidelity(r2, r1)) < 1e-9
    u = haar_unitary(3, rng)
    assert (
        abs(fidelity(State(u @ r1.matrix @ dag(u)), State(u @ r2.matrix @ dag(u)))
            - fidelity(r1, r2))
        < 1e-9
    )


def test_helstrom_edge_cases():
    psi1, psi2 = pure_pair_with_overlap(0.0)
    res = helstrom(State.from_ket(psi1), State.from_ket(psi2))
    assert res.p_error < 1e-12
    rho = State(random_density(2, np.random.default_rng(4)))
    res = helstrom(rho, rho)
    assert abs(res.p_error - 0.5) < 1e-12
    assert np.abs(res.povm.effects[0] - np.eye(2) / 2).max() < 1e-12


def test_helstrom_matches_trace_distance_formula():
    rng = np.random.default_rng(5)
    r1, r2 = State(random_density(3, rng)), State(random_density(3, rng))
    res = helstrom(r1, r2)
    assert abs(res.p_error - 0.5 * (1 - trace_distance(r1, r2))) < 1e-12


def test_helstrom_beats_sampled_qubit_povms():
    """Optimality oracle: no sampled two-outcome POVM does better."""
    rng = np.random.default_rng(6)
    psi1, psi2 = pure_pair_with_overlap(0.5)
    r1, r2 = State.from_ket(psi1), State.from_ket(psi2)
    best = helstrom(r1, r2).p_error
    assert abs(best - 0.5 * (1 - np.sqrt(3) / 2)) < 1e-12
    for _ in range(10000):
        # random effect 0 <= C1 <= I by construction
        u = haar_unitary(2, rng)
        vals = rng.uniform(0, 1, size=2)
        c1 = u @ np.diag(vals).astype(complex) @ dag(u)
        p_err = 0.5 * (
            np.trace(r1.matrix @ (np.eye(2) - c1)).real + np.trace(r2.matrix @ c1).real
        )
        assert p_err >= best - 1e-9


def test_unambiguous_two_pure_orthogonal():
    psi1, psi2 = pure_pair_with_overlap(0.0)
    res = unambiguous_two_pure(psi1, psi2)
    assert abs(res.p_success - 1) < 1e-12
    # projective conclusive effects
    for key in ("1", "2"):
        e = res.povm.effect(key)
        assert np.abs(e @ e - e).max() < 1e-9


def test_unambiguous_two_pure_half_overlap():
    psi1, psi2 = pure_pair_with_overlap(0.5)
    res = unambiguous_two_pure(psi1, psi2)
    assert abs(res.p_success - 0.5) < 1e-12


def test_unambiguous_no_error_conditions_d5():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi1, psi2 = random_ket(5, rng), random_ket(5, rng)
        res = unambiguous_two_pure(psi1, psi2)
        rho1, rho2 = outer(psi1), outer(psi2)
        assert abs(np.trace(rho2 @ res.povm.effect("1"))) < 1e-12
        assert abs(np.trace(rho1 @ res.povm.effect("2"))) < 1e-12


@pytest.mark.parametrize("scheme", [unambiguous_two_pure,
                                    lambda a, b, eta: unambiguous_mixture_povm(a, b, 0.3, eta)])
def test_an_unambiguous_scheme_errs_never_and_is_inconclusive_otherwise(scheme):
    rng = np.random.default_rng(9)
    for d in (2, 3, 5):
        psi1, psi2 = random_ket(d, rng), random_ket(d, rng)
        res = scheme(psi1, psi2, eta=0.3)
        assert res.povm.outcomes == ("1", "2", "?")
        c1, c2, cq = res.povm.effects
        assert np.array_equal(cq, np.eye(d) - c1 - c2)
        assert abs(res.p_error - (1 - res.p_success)) < 1e-12


def test_a_result_holds_the_measurement_and_its_two_probabilities():
    assert [f.name for f in fields(DiscriminationResult)] == ["povm", "p_success", "p_error"]


def test_unambiguous_rejects_identical():
    psi = unit_ket([1, 1j])
    with pytest.raises(ValueError):
        unambiguous_two_pure(psi, psi * np.exp(0.3j))


def test_unambiguous_mixture_value():
    psi1, psi2 = pure_pair_with_overlap(0.5)
    res = unambiguous_mixture_povm(psi1, psi2, q=0.5)
    assert abs(res.p_success - 0.375) < 1e-15


def test_unambiguous_mixture_q_limits_and_validity():
    psi1, psi2 = pure_pair_with_overlap(0.3)
    for q in np.arange(0.1, 0.95, 0.1):
        res = unambiguous_mixture_povm(psi1, psi2, q=q)
        total = sum(e for e in res.povm.effects)
        assert np.abs(total - np.eye(2)).max() < 1e-12
    res = unambiguous_mixture_povm(psi1, psi2, q=1 - 1e-12)
    assert np.abs(res.povm.effect("2")).max() < 1e-9


def test_idp_bound():
    psi1, psi2 = pure_pair_with_overlap(0.5)
    assert abs(idp_bound(State.from_ket(psi1), State.from_ket(psi2)) - 0.5) < 1e-12
    rho = State(random_density(3, np.random.default_rng(8)))
    assert abs(idp_bound(rho, rho)) < 1e-9


def test_idp_bound_dominates_schemes():
    for eta in (0.5, 0.3, 0.8):
        rng = np.random.default_rng(9)
        for _ in range(20):
            psi1, psi2 = random_ket(4, rng), random_ket(4, rng)
            bound = idp_bound(State.from_ket(psi1), State.from_ket(psi2), eta=eta)
            # pure pair: 1 - 2 sqrt(eta (1 - eta)) |<psi1|psi2>|
            assert abs(bound - (1 - 2 * np.sqrt(eta * (1 - eta)) * abs(inner(psi1, psi2)))) < 1e-9
            assert unambiguous_two_pure(psi1, psi2, eta).p_success <= bound + 1e-9
            q = rng.uniform(0.1, 0.9)
            assert unambiguous_mixture_povm(psi1, psi2, q=q, eta=eta).p_success <= bound + 1e-9


def test_unambiguous_feasible():
    rng = np.random.default_rng(10)
    psi1, psi2 = pure_pair_with_overlap(0.5)
    assert unambiguous_feasible(State.from_ket(psi1), State.from_ket(psi2)) == (True, True)
    rho1 = State(random_density(3, rng))
    assert unambiguous_feasible(rho1, State.maximally_mixed(3))[0] is False
    # a full-rank state can be told apart from a contained pure one, but
    # the pure state can never be certified against the full-rank partner
    mixed = State(random_density(2, rng))
    pure = State.from_ket(random_ket(2, rng))
    ident_pure, ident_mixed = unambiguous_feasible(pure, mixed)
    assert ident_pure is False and ident_mixed is True


def test_perfect_discrimination_iff_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi1, psi2 = random_ket(3, rng), random_ket(3, rng)
        r1, r2 = State.from_ket(psi1), State.from_ket(psi2)
        res = helstrom(r1, r2)
        overlap = np.trace(r1.matrix @ r2.matrix).real
        assert (res.p_error < 1e-9) == (overlap < 1e-9)


def test_contractivity_under_channels():
    from qitools.channels import KrausChannel, apply

    rng = np.random.default_rng(12)
    for _ in range(20):
        ch = KrausChannel(tuple(random_kraus_ops(3, rng)))
        r1, r2 = random_density(3, rng), random_density(3, rng)
        e1, e2 = apply(ch, r1), apply(ch, r2)
        assert trace_distance(State(e1), State(e2)) <= trace_distance(State(r1), State(r2)) + 1e-9
        assert fidelity(State(e1), State(e2)) >= fidelity(State(r1), State(r2)) - 1e-9
