import numpy as np
import pytest

from qitools.linalg import dag, inner, outer, partial_trace
from qitools.rand import haar_unitary, random_density, random_ket
from qitools.states import (
    BlochVector,
    State,
    canonical_decomposition,
    conjugation_average,
    convex_decomposition,
    from_bloch,
    interference_term,
    purify,
    purity,
    qubit_state,
    superposition_ket,
    to_bloch,
    traceless_hermitian_basis,
    von_neumann_entropy,
)
from qitools.states import PAULI_X, PAULI_Y, PAULI_Z


def test_state_validation():
    with pytest.raises(ValueError):
        State(np.diag([1.0, 0.2]))  # trace != 1
    with pytest.raises(ValueError):
        State(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        State(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite_entries(bad):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[1, 0] = bad
    with pytest.raises(ValueError, match=r"state\[2\]: entries must be finite"):
        State(m)


def test_state_checks_finiteness_once(monkeypatch):
    import qitools.linalg
    import qitools.states

    seen = []
    check = qitools.linalg._require_finite

    def counted(a, what):
        seen.append(what)
        check(a, what)

    monkeypatch.setattr(qitools.linalg, "_require_finite", counted)
    monkeypatch.setattr(qitools.states, "_require_finite", counted)
    State(np.diag([0.25, 0.75]))
    assert seen == ["state"]


def test_purity_range_and_pure():
    rng = np.random.default_rng(0)
    psi = random_ket(4, rng)
    assert abs(purity(State.from_ket(psi)) - 1) < 1e-12
    assert abs(purity(State.maximally_mixed(4)) - 0.25) < 1e-12


def test_purity_qubit_bloch_formula():
    # direct tr[rho^2] evaluation: purity = (1 + |r|^2) / 2
    r = np.array([0.3, -0.2, 0.4])
    rho = qubit_state(r)
    assert abs(purity(rho) - (1 + r @ r) / 2) < 1e-12


def test_entropy_values():
    rng = np.random.default_rng(1)
    assert von_neumann_entropy(State.from_ket(random_ket(3, rng))) < 1e-9
    assert abs(von_neumann_entropy(State.maximally_mixed(5)) - np.log(5)) < 1e-12
    rho = State(np.diag([0.75, 0.25]))
    expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert abs(von_neumann_entropy(rho) - expected) < 1e-12
    assert abs(von_neumann_entropy(rho, base=2) - expected / np.log(2)) < 1e-12


def test_gell_mann_matches_paulis_for_qubits():
    basis = traceless_hermitian_basis(2)
    assert np.allclose(basis[0], PAULI_X)
    assert np.allclose(basis[1], PAULI_Y)
    assert np.allclose(basis[2], PAULI_Z)


def test_gell_mann_orthogonality():
    for d in (2, 3, 4):
        basis = traceless_hermitian_basis(d)
        assert len(basis) == d * d - 1
        for j, ej in enumerate(basis):
            assert abs(np.trace(ej)) < 1e-12
            for k, ek in enumerate(basis):
                expected = d if j == k else 0.0
                assert abs(np.trace(ej @ ek) - expected) < 1e-12


def test_bloch_round_trip():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        rho = State(random_density(d, rng))
        again = from_bloch(to_bloch(rho))
        assert np.abs(again.matrix - rho.matrix).max() < 1e-9


def test_bloch_north_pole():
    rho = qubit_state([0, 0, 1])
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_qubit_eigenvalues_from_bloch_norm():
    r = np.array([0.2, 0.1, -0.5])
    rho = qubit_state(r)
    evals = np.sort(np.linalg.eigvalsh(rho.matrix))
    n = np.linalg.norm(r)
    assert np.allclose(evals, [(1 - n) / 2, (1 + n) / 2], atol=1e-12)


def test_pure_state_bloch_norm():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        b = to_bloch(State.from_ket(random_ket(d, rng)))
        assert abs(b.norm - np.sqrt(d - 1)) < 1e-9


def test_antipodal_bloch_vector_rejected():
    psi = random_ket(3, np.random.default_rng(4))
    b = to_bloch(State.from_ket(psi))
    with pytest.raises(ValueError) as err:
        from_bloch(BlochVector(3, -b.components))
    # offending eigenvalue (2 - d)/d = -1/3
    assert "-0.333" in str(err.value)


def test_canonical_decomposition_qubit_weights():
    r = np.array([0.1, 0.5, -0.2])
    terms = canonical_decomposition(qubit_state(r))
    n = np.linalg.norm(r)
    weights = [w for w, _ in terms]
    assert np.allclose(weights, [(1 + n) / 2, (1 - n) / 2])


def test_canonical_decomposition_pure():
    psi = random_ket(3, np.random.default_rng(5))
    terms = canonical_decomposition(State.from_ket(psi))
    assert len(terms) == 1 and abs(terms[0][0] - 1) < 1e-9


def test_canonical_decomposition_reconstruction():
    rho = State(random_density(4, np.random.default_rng(6)))
    rebuilt = sum(w * outer(k) for w, k in canonical_decomposition(rho))
    assert np.abs(rebuilt - rho.matrix).max() < 1e-9


def test_convex_decomposition_eigenbasis():
    rho = State(random_density(3, np.random.default_rng(7)))
    eigenkets = [k for _, k in canonical_decomposition(rho)]
    terms = convex_decomposition(rho, eigenkets)
    canon = canonical_decomposition(rho)
    assert np.allclose(sorted(w for w, _ in terms), sorted(w for w, _ in canon))


def test_convex_decomposition_hadamard():
    h = [np.array([[1], [1]]) / np.sqrt(2), np.array([[1], [-1]]) / np.sqrt(2)]
    terms = convex_decomposition(State.maximally_mixed(2), h)
    assert np.allclose([w for w, _ in terms], [0.5, 0.5])
    for (w, k), basis_ket in zip(terms, h):
        assert abs(abs(inner(k, basis_ket)) - 1) < 1e-9


def test_convex_decomposition_random_unitary_basis():
    rng = np.random.default_rng(8)
    rho = State(random_density(4, rng))
    u = haar_unitary(4, rng)
    basis = [u[:, [j]] for j in range(4)]
    terms = convex_decomposition(rho, basis)
    rebuilt = sum(w * outer(k) for w, k in terms)
    assert np.abs(rebuilt - rho.matrix).max() < 1e-9


def test_convex_decomposition_rejects_bad_basis():
    with pytest.raises(ValueError):
        convex_decomposition(State.maximally_mixed(2), [np.array([[1], [0]])] * 2)


def test_convex_decomposition_rejects_a_nan_basis():
    with pytest.raises(ValueError, match="^basis is not orthonormal$"):
        convex_decomposition(State.maximally_mixed(2), [[np.nan, 0], [0, 1]])


def test_interference_term_rejects_a_nan_ket():
    with pytest.raises(ValueError, match="^interference is defined for orthogonal kets$"):
        interference_term([1, 0], [np.nan, 1], 1, 1, np.eye(2))


def test_bloch_directions_reject_nan():
    from qitools.entanglement import chsh_operator
    from qitools.observables import stern_gerlach

    z = (0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="^Bloch directions must be unit vectors$"):
        chsh_operator((np.nan, 0.0, 0.0), z, z, z)
    with pytest.raises(ValueError, match="^Bloch directions must be unit vectors$"):
        stern_gerlach((np.nan, 0.0, 0.0))


def test_purify_round_trip():
    rng = np.random.default_rng(9)
    rho = State(random_density(3, rng, rank=2))
    psi = purify(rho)
    assert psi.shape == (6, 1)  # minimal ancilla = rank
    back = partial_trace(outer(psi), 3, 2, side="B")
    assert np.abs(back - rho.matrix).max() < 1e-9


def test_purify_total_mixture_schmidt_weights():
    psi = purify(State.maximally_mixed(2))
    mat = psi.reshape(2, 2)
    sing = np.linalg.svd(mat, compute_uv=False)
    assert np.allclose(sing**2, [0.5, 0.5])


def test_purify_pure_state_is_product():
    psi_in = random_ket(3, np.random.default_rng(10))
    psi = purify(State.from_ket(psi_in))
    assert psi.shape == (3, 1)


@pytest.mark.parametrize("build", [
    lambda: superposition_ket([1, 0], [1, 0], 0.5, -0.5),
    lambda: purify(np.zeros((2, 2))),
    lambda: State.from_ket([0, 0]),
], ids=["superposition_ket", "purify", "from_ket"])
def test_a_zero_ket_is_not_normalized(build):
    with pytest.raises(ValueError, match="^cannot normalize the zero vector$"):
        build()


def test_a_nonzero_superposition_is_divided_by_its_norm():
    v = 0.6 * np.array([[1.0], [1j]]) + 0.8j * np.array([[0.5], [2.0]])
    assert np.array_equal(superposition_ket([1, 1j], [0.5, 2.0], 0.6, 0.8j), v / np.linalg.norm(v))


def test_interference_term():
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    e1 = np.array([[0.0], [1.0]], dtype=complex)
    a, b = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)
    omega = superposition_ket(e0, e1, a, b)
    assert abs(interference_term(e0, e1, a, b, outer(e0))) < 1e-12
    assert abs(interference_term(e0, e1, a, b, np.eye(2))) < 1e-12
    value = interference_term(e0, e1, a, b, outer(omega))
    assert abs(abs(value) - 2 * abs(a * b) ** 2 / (abs(a) ** 2 + abs(b) ** 2)) < 1e-12


def test_interference_rejects_nonorthogonal():
    v = np.array([[1.0], [0.0]], dtype=complex)
    with pytest.raises(ValueError):
        interference_term(v, v, 1, 1, np.eye(2))


def test_purity_convex_entropy_concave():
    rng = np.random.default_rng(11)
    for _ in range(20):
        r1, r2 = random_density(3, rng), random_density(3, rng)
        lam = rng.uniform()
        mix = lam * r1 + (1 - lam) * r2
        assert purity(mix) <= lam * purity(r1) + (1 - lam) * purity(r2) + 1e-9
        assert (
            von_neumann_entropy(State(mix))
            >= lam * von_neumann_entropy(State(r1))
            + (1 - lam) * von_neumann_entropy(State(r2))
            - 1e-9
        )


def test_unitary_invariance():
    rng = np.random.default_rng(12)
    rho = random_density(3, rng)
    u = haar_unitary(3, rng)
    rotated = u @ rho @ dag(u)
    assert abs(purity(rho) - purity(rotated)) < 1e-12
    assert abs(von_neumann_entropy(State(rho)) - von_neumann_entropy(State(rotated))) < 1e-9


def test_boundary_flag():
    rho = State(np.diag([0.5, 0.5, 0.0]))
    assert rho.is_boundary()
    # perturbing along the kernel leaves the state space
    phi = np.array([[0.0], [0.0], [1.0]], dtype=complex)
    perturbed = rho.matrix - 1e-3 * outer(phi) / 2
    assert np.linalg.eigvalsh(perturbed).min() < 0
    assert not State(random_density(3, np.random.default_rng(13))).is_boundary()


@pytest.mark.parametrize("weights", [[0.2, 0.3, 0.5], [5.0], [1.0], [1.5, -0.5],
                                     [float("nan"), 1.0]])
def test_conjugation_average_needs_one_probability_per_unitary(weights):
    with pytest.raises(ValueError,
                       match="^weights must form a probability vector, one per unitary$"):
        conjugation_average(np.diag([1.0, 0.0]), [np.eye(2), PAULI_X], weights=weights)


def test_conjugation_average_weighs_each_conjugate():
    got = conjugation_average(np.diag([1.0, 0.0]), [np.eye(2), PAULI_X], weights=[0.25, 0.75])
    assert np.abs(got - np.diag([0.25, 0.75])).max() < 1e-15


def test_maximally_mixed_fixed_by_orthogonal_unitary_average():
    # averaging over a unitary operator basis sends everything to I/d
    from qitools.protocols import ShiftMultiplyBasis

    rng = np.random.default_rng(14)
    d = 3
    basis = ShiftMultiplyBasis.build(d)
    us = list(basis.unitaries)
    rho = random_density(d, rng)
    averaged = conjugation_average(rho, us)
    assert np.abs(averaged - np.eye(d) / d).max() < 1e-9
    assert np.abs(conjugation_average(np.eye(d) / d, us) - np.eye(d) / d).max() < 1e-12
