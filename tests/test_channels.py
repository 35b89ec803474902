import numpy as np
import pytest

from qitools.channels import (
    AffineRep,
    ChoiMatrix,
    KrausChannel,
    affine_apply,
    affine_to_choi,
    apply,
    bloch_rotation,
    certify,
    chi_to_kraus,
    compose,
    conjugate,
    contraction_factor,
    dilation_apply,
    fixed_point,
    from_choi,
    heisenberg_dual,
    is_entanglement_breaking,
    is_pure_decoherence,
    kraus_equivalent,
    make,
    measure_prepare_channel,
    qubit_cp_check,
    qubit_diagonal_choi,
    qubit_normal_form,
    stinespring,
    sup_distance,
    tensor_channels,
    to_affine,
    to_chi,
    to_choi,
    transposition_map,
    unitary_channel,
)
from qitools.entanglement import maximally_entangled_ket
from qitools.linalg import NumericError, dag, outer, tensor, trace_norm
from qitools.rand import haar_unitary, random_density, random_ket, random_kraus_ops
from qitools.states import PAULIS, State, qubit_state, to_bloch


IDENT2 = KrausChannel((np.eye(2, dtype=complex),))


def random_channel(d, rng, count=None):
    return KrausChannel(tuple(random_kraus_ops(d, rng, count=count)))


def test_apply_identity_and_contraction():
    rng = np.random.default_rng(0)
    t = random_density(2, rng)
    assert np.allclose(apply(IDENT2, t), t)
    xi = State(random_density(3, rng))
    con = make("contraction", xi=xi)
    assert np.abs(apply(con, random_density(3, rng)) - xi.matrix).max() < 1e-12
    full = make("depolarizing", d=3, p=1.0)
    assert np.abs(apply(full, random_density(3, rng)) - np.eye(3) / 3).max() < 1e-12


def test_certify_identity():
    rep = certify(IDENT2)
    assert rep["cp"] and rep["tp"] and rep["unital"] and rep["trace_decreasing"]


def test_certify_transposition():
    rep = certify(transposition_map(2))
    assert not rep["cp"]
    made = make("transposition", d=2)
    assert np.array_equal(made.matrix, transposition_map(2).matrix) and made.in_dim == 2
    assert abs(rep["choi_min_eig"] + 0.5) < 1e-12
    # the d = 2 chi-normalized Choi is the swap-like matrix with entries 0/1
    omega = to_choi(transposition_map(2)).matrix
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ) / 2
    assert np.abs(omega - expected).max() < 1e-12


def test_certify_depolarizing():
    rep = certify(make("depolarizing", d=2, p=0.4))
    assert rep["cp"] and rep["tp"] and rep["unital"]


def test_choi_of_identity_is_max_entangled():
    omega = to_choi(IDENT2).matrix
    psi = maximally_entangled_ket(2)
    assert np.abs(omega - outer(psi)).max() < 1e-12


def test_choi_of_unitary_is_pure():
    rng = np.random.default_rng(1)
    u = haar_unitary(3, rng)
    omega = to_choi(unitary_channel(u)).matrix
    psi = tensor(u, np.eye(3)) @ maximally_entangled_ket(3)
    assert np.abs(omega - outer(psi)).max() < 1e-12


def test_kraus_choi_round_trip():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        ch = random_channel(d, rng)
        back = from_choi(to_choi(ch))
        for _ in range(3):
            x = random_density(d, rng)
            assert np.abs(apply(ch, x) - apply(back, x)).max() < 1e-8
            assert np.abs(apply(ch, x) - apply(to_choi(ch), x)).max() < 1e-8


def test_from_choi_rejects_non_cp():
    with pytest.raises(ValueError):
        from_choi(to_choi(transposition_map(2)))


def test_chi_identity_and_pauli():
    chi = to_chi(IDENT2)
    assert np.allclose(np.diag(chi.matrix).real, [2, 0, 0, 0])
    q = (0.4, 0.3, 0.2, 0.1)
    chi = to_chi(make("pauli", q=q))
    assert np.allclose(np.diag(chi.matrix).real, [2 * x for x in q])
    assert np.abs(chi.matrix - np.diag(np.diag(chi.matrix))).max() < 1e-12


def test_chi_trace_is_dimension():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        ch = random_channel(d, rng)
        assert abs(np.trace(to_chi(ch).matrix).real - d) < 1e-9


def test_chi_round_trip():
    rng = np.random.default_rng(4)
    ch = random_channel(3, rng)
    back = chi_to_kraus(to_chi(ch))
    x = random_density(3, rng)
    assert np.abs(apply(ch, x) - apply(back, x)).max() < 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zero_map_inverts_to_one_zero_operator(d):
    zero = KrausChannel((np.zeros((d, d)),))
    for back in (chi_to_kraus(to_chi(zero)), from_choi(to_choi(zero))):
        assert len(back.kraus_ops) == 1
        assert back.kraus_ops[0].shape == (d, d)
        assert not back.kraus_ops[0].any()


def test_affine_unitary_is_special_orthogonal():
    rng = np.random.default_rng(5)
    u = haar_unitary(2, rng)
    aff = to_affine(unitary_channel(u))
    assert np.abs(aff.t).max() < 1e-12
    assert np.abs(aff.T @ aff.T.T - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(aff.T) - 1) < 1e-9


def test_affine_depolarizing_and_contraction():
    aff = to_affine(make("depolarizing", d=2, p=0.3))
    assert np.abs(aff.T - 0.7 * np.eye(3)).max() < 1e-12
    aff = to_affine(make("contraction", xi=State.maximally_mixed(2)))
    assert np.abs(aff.T).max() < 1e-12 and np.abs(aff.t).max() < 1e-12


def test_affine_action_matches_channel():
    rng = np.random.default_rng(6)
    ch = random_channel(2, rng)
    aff = to_affine(ch)
    for _ in range(5):
        rho = qubit_state(0.9 * _random_bloch(rng))
        out = apply(ch, rho)
        r_out = affine_apply(aff, to_bloch(rho).components)
        assert np.abs(to_bloch(State(out)).components - r_out).max() < 1e-9


def _random_bloch(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(0, 1)


def test_affine_round_trip():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        ch = random_channel(d, rng)
        back = from_choi(affine_to_choi(to_affine(ch)))
        x = random_density(d, rng)
        assert np.abs(apply(ch, x) - apply(back, x)).max() < 1e-8


def test_affine_requires_tp():
    halved = KrausChannel((np.eye(2, dtype=complex) / 2,))
    with pytest.raises(ValueError):
        to_affine(halved)


def test_kraus_equivalent():
    rng = np.random.default_rng(8)
    ch = random_channel(2, rng, count=3)
    # reordered and zero-padded list
    reordered = KrausChannel(
        (ch.kraus_ops[2], ch.kraus_ops[0], ch.kraus_ops[1], np.zeros((2, 2)))
    )
    assert kraus_equivalent(ch, reordered)
    # unitary mixing
    u = haar_unitary(3, rng)
    mixed = KrausChannel(
        tuple(sum(u[j, k] * ch.kraus_ops[k] for k in range(3)) for j in range(3))
    )
    same, witness = kraus_equivalent(ch, mixed, return_witness=True)
    assert same
    rebuilt = [sum(witness[j, k] * mixed.kraus_ops[k] for k in range(3)) for j in range(3)]
    assert max(np.abs(a - b).max() for a, b in zip(rebuilt, ch.kraus_ops)) < 1e-8
    assert not kraus_equivalent(IDENT2, make("depolarizing", d=2, p=0.5))
    assert kraus_equivalent(IDENT2, make("depolarizing", d=2, p=0.5), return_witness=True) == (
        False, None)


def test_stinespring_unitary_channel():
    env_dim, _, _ = stinespring(unitary_channel(haar_unitary(2, np.random.default_rng(9))))
    assert env_dim == 1


def test_stinespring_full_depolarizing():
    # four Kraus operators E_jk / sqrt(2)
    ops = tuple(m / np.sqrt(2) for m in (
        np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]]),
        np.array([[0, 0], [1, 0]]), np.array([[0, 0], [0, 1]]),
    ))
    ch = KrausChannel(ops)
    env_dim, u, env_ket = stinespring(ch)
    assert env_dim == 4
    assert np.abs(dag(u) @ u - np.eye(8)).max() < 1e-9
    rho = random_density(2, np.random.default_rng(10))
    assert np.abs(dilation_apply(env_dim, u, env_ket, rho) - np.eye(2) / 2).max() < 1e-9


def test_stinespring_replay_random():
    rng = np.random.default_rng(11)
    ch = random_channel(3, rng)
    env_dim, u, env_ket = stinespring(ch)
    rho = random_density(3, rng)
    assert np.abs(dilation_apply(env_dim, u, env_ket, rho) - apply(ch, rho)).max() < 1e-9


def test_conjugate_of_unitary_is_contraction():
    rng = np.random.default_rng(12)
    cu = conjugate(unitary_channel(haar_unitary(3, rng)))
    for _ in range(3):
        out = apply(cu, random_density(3, rng))
        assert np.abs(out - np.eye(1)).max() < 1e-12


def test_conjugate_of_random_unitary_channel():
    from qitools.channels import random_unitary_conjugate

    rng = np.random.default_rng(13)
    ps = (0.5, 0.3, 0.2)
    us = [haar_unitary(2, rng) for _ in ps]
    pairs = list(zip(ps, us))
    # controlled-unitary dilation with diagonal environment: output diag(p)
    conj = random_unitary_conjugate(pairs)
    out = apply(conj, random_density(2, rng))
    assert np.abs(out - np.diag(ps)).max() < 1e-9
    rep = certify(conj)
    assert rep["cp"] and rep["tp"]
    # the canonical pure-environment conjugate still carries diag(p) on
    # its diagonal for every input
    ch = make("random_unitary", pairs=pairs)
    out = apply(conjugate(ch), random_density(2, rng))
    assert np.abs(np.diag(out).real - np.array(ps)).max() < 1e-9


def test_conjugate_matches_dilation_environment():
    rng = np.random.default_rng(14)
    ch = random_channel(2, rng)
    env_dim, u, env_ket = stinespring(ch)
    rho = random_density(2, rng)
    big = u @ tensor(rho, env_ket @ dag(env_ket)) @ dag(u)
    from qitools.linalg import partial_trace

    env_out = partial_trace(big, 2, env_dim, side="A")
    assert np.abs(apply(conjugate(ch), rho) - env_out).max() < 1e-9


def test_conjugate_is_cptp():
    rng = np.random.default_rng(15)
    rep = certify(conjugate(random_channel(3, rng)))
    assert rep["cp"] and rep["tp"]


def test_heisenberg_dual():
    rng = np.random.default_rng(16)
    ch = random_channel(3, rng)
    dual = heisenberg_dual(ch)
    for _ in range(5):
        t = random_density(3, rng)
        e = np.diag(rng.uniform(0, 1, size=3)).astype(complex)
        lhs = np.trace(apply(ch, t) @ e)
        rhs = np.trace(t @ apply(dual, e))
        assert abs(lhs - rhs) < 1e-10
    # dual of a contraction sends A to tr[F A]/tr[F] I
    xi = State(random_density(3, rng))
    dual_con = heisenberg_dual(make("contraction", xi=xi))
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert np.abs(apply(dual_con, a) - np.trace(xi.matrix @ a) * np.eye(3)).max() < 1e-9
    # dual of the identity is the identity; dual unital iff primal TP
    assert np.allclose(apply(heisenberg_dual(IDENT2), a[:2, :2]), a[:2, :2])
    assert heisenberg_dual(ch).is_unital()


def test_pauli_equals_depolarizing():
    p = 0.6
    pauli = make("pauli", q=(1 - 3 * p / 4, p / 4, p / 4, p / 4))
    dep = make("depolarizing", d=2, p=p)
    assert trace_norm(to_choi(pauli).matrix - to_choi(dep).matrix) < 1e-12


def test_orthogonal_unitary_average_is_total_contraction():
    from qitools.protocols import ShiftMultiplyBasis

    for d in (2, 3):
        basis = ShiftMultiplyBasis.build(d)
        pairs = [(1 / d**2, u) for u in basis.unitaries]
        avg = make("random_unitary", pairs=pairs)
        con = make("contraction", xi=State.maximally_mixed(d))
        assert trace_norm(to_choi(avg).matrix - to_choi(con).matrix) < 1e-9


def test_phase_damping_affine():
    for eta in (0.0, 0.3, 1.0):
        aff = to_affine(make("phase_damping", eta=eta))
        lam = 2 * eta - 1
        assert np.allclose(np.diag(aff.T), [lam, lam, 1.0], atol=1e-12)
        assert np.abs(aff.t).max() < 1e-12


def test_phase_damping_axis_names_and_vectors_agree():
    for name, vector in (("x", (2, 0, 0)), ("y", (0, 0.5, 0)), ("z", (0, 0, 3))):
        by_name = make("phase_damping", eta=0.3, axis=name).kraus_ops
        assert np.abs(by_name - make("phase_damping", eta=0.3, axis=vector).kraus_ops).max() == 0


@pytest.mark.parametrize("axis", ["w", "X", "", (0, 0, 0), (np.nan, 0, 0), (0, np.inf, 0),
                                  (1, 0), [[1, 0, 0]], None])
def test_phase_damping_rejects_a_bad_axis(axis):
    with pytest.raises(ValueError, match="axis must be x, y, z or a nonzero finite 3-vector"):
        make("phase_damping", eta=0.3, axis=axis)


def test_qubit_cp_check_examples():
    assert qubit_cp_check((1, 1, 1), (0, 0, 0))["cp"]
    rep = qubit_cp_check((-1, -1, -1), (0, 0, 0))
    assert not rep["cp"]
    rep = qubit_cp_check((-1 / 3, -1 / 3, -1 / 3), (0, 0, 0))
    assert rep["cp"] and abs(rep["choi_min_eig"]) < 1e-9


def test_qubit_diagonal_choi_matches_generic_choi_spectrum():
    rng = np.random.default_rng(17)
    ch = random_channel(2, rng)
    aff = to_affine(ch)
    u, lam, t, v = qubit_normal_form(ch)
    phi = qubit_diagonal_choi(lam, t)
    spec1 = np.sort(np.linalg.eigvalsh(phi))
    dmap = from_choi(affine_to_choi(AffineRep(np.diag(lam), t, 2)))
    spec2 = np.sort(np.linalg.eigvalsh(2 * to_choi(dmap).matrix))
    assert np.abs(spec1 - spec2).max() < 1e-8


def test_qubit_normal_form_unitary():
    u0 = haar_unitary(2, np.random.default_rng(18))
    u, lam, t, v = qubit_normal_form(unitary_channel(u0))
    assert np.allclose(np.abs(lam), [1, 1, 1], atol=1e-9)
    assert np.abs(t).max() < 1e-9


def test_qubit_normal_form_depolarizing():
    p = 0.35
    u, lam, t, v = qubit_normal_form(make("depolarizing", d=2, p=p))
    assert np.allclose(np.abs(lam), (1 - p) * np.ones(3), atol=1e-12)
    assert abs(np.prod(lam) - (1 - p) ** 3) < 1e-12


def test_qubit_normal_form_reconstruction():
    rng = np.random.default_rng(19)
    for _ in range(5):
        ch = random_channel(2, rng)
        u, lam, t, v = qubit_normal_form(ch)
        dmap = from_choi(affine_to_choi(AffineRep(np.diag(lam), t, 2)))
        recon = compose(unitary_channel(u), compose(dmap, unitary_channel(v)))
        x = random_density(2, rng)
        assert np.abs(apply(recon, x) - apply(ch, x)).max() < 1e-8
        # sign choice preserves the determinant of the affine block
        assert abs(np.prod(lam) - np.linalg.det(to_affine(ch).T)) < 1e-9


def test_unital_qubit_channels_in_tetrahedron():
    rng = np.random.default_rng(20)
    for _ in range(10):
        q = rng.dirichlet(np.ones(4))
        ch = make("pauli", q=q)
        u, lam, t, v = qubit_normal_form(ch)
        assert np.abs(t).max() < 1e-9
        assert abs(lam[0] + lam[1]) <= abs(1 + lam[2]) + 1e-9
        assert abs(lam[0] - lam[1]) <= abs(1 - lam[2]) + 1e-9


def test_sup_distance_unitary_vs_total_contraction():
    ch_u = unitary_channel(haar_unitary(2, np.random.default_rng(21)))
    a0 = make("contraction", xi=State.maximally_mixed(2))
    value, arg = sup_distance(ch_u, a0, rng=0, restarts=8)
    assert abs(value - 0.5) < 1e-3
    assert sup_distance(ch_u, ch_u, rng=0, restarts=4)[0] < 1e-9


def test_noise_distance_of_pure_contraction():
    from qitools.channels import noise_distance

    psi = random_ket(2, np.random.default_rng(22))
    ch = make("contraction", xi=State.from_ket(psi))
    assert abs(noise_distance(ch, rng=0, restarts=16) - 1) < 1e-3


def test_fixed_point_depolarizing():
    rng = np.random.default_rng(23)
    ch = make("depolarizing", d=3, p=0.4)
    xi = fixed_point(ch, State(random_density(3, rng)))
    assert np.abs(xi.matrix - np.eye(3) / 3).max() < 1e-6


def test_fixed_point_unitary_eigenstate():
    u = np.diag(np.exp(1j * np.array([0.3, 1.1]))).astype(complex)
    rho0 = State(np.diag([1.0, 0.0]))
    xi = fixed_point(unitary_channel(u), rho0)
    assert np.abs(xi.matrix - rho0.matrix).max() < 1e-12


def test_fixed_point_contraction_single_step():
    rng = np.random.default_rng(24)
    xi = State(random_density(2, rng))
    found = fixed_point(make("contraction", xi=xi), State.maximally_mixed(2))
    assert np.abs(found.matrix - xi.matrix).max() < 1e-9


def test_fixed_point_nonconvergence():
    u = unitary_channel(PAULIS[1])
    with pytest.raises(NumericError):
        fixed_point(u, State(np.diag([1.0, 0.0])), max_iter=50)


def test_contraction_factor():
    rng = np.random.default_rng(25)
    p = 0.3
    est = contraction_factor(make("depolarizing", d=2, p=p), sample_pairs=20, rng=rng)
    assert abs(est - (1 - p)) < 1e-9
    est = contraction_factor(unitary_channel(haar_unitary(2, rng)), sample_pairs=20, rng=rng)
    assert abs(est - 1) < 1e-9
    # strictly contractive mixtures never reach 1
    mix = make("random_unitary", pairs=[(0.9, np.eye(2, dtype=complex)), (0.1, PAULIS[1])])
    blend = KrausChannel(
        tuple(np.sqrt(0.9) * a for a in mix.kraus_ops)
        + tuple(np.sqrt(0.1) * a for a in make("contraction", xi=State.maximally_mixed(2)).kraus_ops)
    )
    assert contraction_factor(blend, sample_pairs=20, rng=rng) < 1 - 1e-6


def test_is_pure_decoherence():
    basis = [np.array([[1], [0]], dtype=complex), np.array([[0], [1]], dtype=complex)]
    assert is_pure_decoherence(make("phase_damping", eta=0.4), basis)
    assert not is_pure_decoherence(make("depolarizing", d=2, p=0.5), basis)
    diag_u = unitary_channel(np.diag([1.0, 1j]).astype(complex))
    assert is_pure_decoherence(diag_u, basis)


def test_positive_but_not_cp_antiunitary():
    rng = np.random.default_rng(26)
    sigma_a = compose(transposition_map(2), unitary_channel(haar_unitary(2, rng)))
    rep = certify(sigma_a)
    assert not rep["cp"]
    for _ in range(10):  # positivity, sampled
        out = apply(sigma_a, random_density(2, rng))
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_cp_closure_compose_tensor():
    rng = np.random.default_rng(27)
    ch1 = random_channel(2, rng)
    ch2 = random_channel(2, rng)
    assert certify(compose(ch1, ch2))["cp"]
    rep = certify(tensor_channels(ch1, ch2))
    assert rep["cp"] and rep["tp"]


def test_entanglement_breaking_cases():
    rng = np.random.default_rng(28)
    con = make("contraction", xi=State(random_density(2, rng)))
    rep = is_entanglement_breaking(con)
    assert rep["verdict"] == "yes"
    mp = measure_prepare_channel(rep["measure_prepare"])
    x = random_density(2, rng)
    assert np.abs(apply(mp, x) - apply(con, x)).max() < 1e-9
    assert is_entanglement_breaking(IDENT2)["verdict"] == "no"
    # qubit depolarizing is entanglement breaking exactly for p >= 2/3
    for p, expected in ((0.5, "no"), (0.7, "yes")):
        assert is_entanglement_breaking(make("depolarizing", d=2, p=p))["verdict"] == expected
    rep = is_entanglement_breaking(make("depolarizing", d=2, p=0.8))
    mp = measure_prepare_channel(rep["measure_prepare"])
    y = random_density(2, rng)
    assert np.abs(apply(mp, y) - apply(make("depolarizing", d=2, p=0.8), y)).max() < 1e-8
    total_effect = sum(f for f, _ in rep["measure_prepare"])
    assert np.abs(total_effect - np.eye(2)).max() < 1e-8
    # PPT but not qubit-qubit stays inconclusive
    rep = is_entanglement_breaking(make("depolarizing", d=3, p=1.0))
    assert rep["verdict"] == "inconclusive"


def test_bloch_rotation_round_trip():
    from qitools.channels import su2_from_rotation

    rng = np.random.default_rng(29)
    u = haar_unitary(2, rng)
    r = bloch_rotation(u)
    u2 = su2_from_rotation(r)
    assert np.abs(bloch_rotation(u2) - r).max() < 1e-8


@pytest.mark.parametrize("bad", [np.full((3, 3), np.nan), np.full((3, 3), np.inf), np.eye(2)])
def test_su2_from_rotation_rejects_a_non_finite_or_non_3x3_matrix_without_a_warning(bad):
    import warnings

    from qitools.channels import su2_from_rotation

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix is not a proper rotation$"):
            su2_from_rotation(bad)


def test_bloch_rotation_matches_pauli_traces():
    rng = np.random.default_rng(30)
    u = haar_unitary(2, rng)
    ref = [[0.5 * np.trace(PAULIS[j] @ u @ PAULIS[k] @ dag(u)).real for k in (1, 2, 3)]
           for j in (1, 2, 3)]
    assert np.abs(bloch_rotation(u) - ref).max() < 1e-14


def test_constructors_leave_the_callers_arrays_writable():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = KrausChannel((a,))
    a[0, 0] = 5
    assert ch.kraus_ops[0][0, 0] == 0
    m = to_choi(IDENT2).matrix.copy()
    choi = ChoiMatrix(m, 2, 2)
    m[0, 0] = 1
    assert choi.matrix[0, 0] == 0.5
    for frozen in (ch.kraus_ops[0], choi.matrix):
        with pytest.raises(ValueError, match="read-only"):
            frozen[0, 0] = 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kraus_channel_rejects_non_finite_entries(bad):
    a = np.eye(2, dtype=complex)
    a[1, 1] = bad
    with pytest.raises(ValueError, match=r"Kraus operator 0\[3\]: entries must be finite"):
        KrausChannel((a,))
    with pytest.raises(ValueError, match=r"Kraus operator 1\[3\]: entries must be finite"):
        KrausChannel((np.eye(2), a))


def test_conjugate_of_non_square_channels_is_tp():
    rng = np.random.default_rng(31)
    embed = KrausChannel((haar_unitary(3, rng)[:, :2],))  # C^2 -> C^3
    trace_out = KrausChannel((np.eye(4)[[0, 2]], np.eye(4)[[1, 3]]))  # C^4 -> C^2
    for ch, n_ops in ((embed, 3), (trace_out, 2)):
        conj = conjugate(ch)
        assert len(conj.kraus_ops) == n_ops
        assert certify(conj)["tp"]
