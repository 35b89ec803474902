import numpy as np
import pytest

from qitools.channels import KrausChannel, _superop_to_choi, certify, from_choi, to_choi
from qitools.instruments import (
    DiscreteInstrument,
    MeasurementModel,
    conditional_output,
    induced_observable,
    instrument_to_normal_memo,
    is_repeatable,
    luders,
    luders_disturbs,
    memo_to_instrument,
    no_information_no_disturbance_check,
    repeatable_instrument,
    trivial_instrument,
)
from qitools.linalg import dag, tensor, unit_ket
from qitools.observables import Povm, outcome_distribution
from qitools.rand import haar_unitary, random_density, random_ket
from qitools.states import State


def z_basis_povm():
    return Povm.from_basis([unit_ket([1, 0]), unit_ket([0, 1])])


def x_basis_povm():
    return Povm.from_basis([unit_ket([1, 1]), unit_ket([1, -1])])


def unsharp_povm():
    e = np.diag([0.7, 0.4]).astype(complex)
    return Povm((0, 1), (e, np.eye(2) - e))


def test_induced_observable_of_luders():
    for a in (z_basis_povm(), unsharp_povm()):
        ins = luders(a)
        b = induced_observable(ins)
        for ea, eb in zip(a.effects, b.effects):
            assert np.abs(ea - eb).max() < 1e-10


def test_induced_observable_of_trivial_instrument():
    a = unsharp_povm()
    xi = State(random_density(2, np.random.default_rng(0)))
    ins = trivial_instrument(a, xi)
    b = induced_observable(ins)
    for ea, eb in zip(a.effects, b.effects):
        assert np.abs(ea - eb).max() < 1e-10


def test_instrument_probabilities_match_povm():
    rng = np.random.default_rng(1)
    a = unsharp_povm()
    ins = luders(a)
    rho = State(random_density(2, rng))
    p = outcome_distribution(a, rho)
    for x, px in zip(a.outcomes, p):
        assert abs(np.trace(ins.apply(x, rho)).real - px) < 1e-10


def test_total_operation_is_trace_preserving():
    ins = luders(unsharp_povm())
    assert certify(ins.total_channel())["tp"]


def test_luders_memo_induces_projective_instrument():
    # coupling psi_j (x) phi_0 -> psi_j (x) phi_j for the z basis
    d = 2
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = 1  # |00> -> |00>
    u[3, 2] = 1  # |10> -> |11>
    u[1, 1] = 1
    u[2, 3] = 1
    probe0 = State(np.diag([1.0, 0.0]))
    pointer = z_basis_povm()
    memo = MeasurementModel(2, probe0, u, pointer)
    ins = memo_to_instrument(memo)
    rng = np.random.default_rng(2)
    rho = random_density(2, rng)
    for k in range(2):
        p = np.zeros((2, 2), dtype=complex)
        p[k, k] = 1
        assert np.abs(ins.apply(k, rho) - p @ rho @ p).max() < 1e-10


def test_memo_probability_reproducibility():
    rng = np.random.default_rng(3)
    probe_dim = 3
    u = haar_unitary(2 * probe_dim, rng)
    probe0 = State.from_ket(random_ket(probe_dim, rng))
    pointer = Povm.from_basis(np.eye(probe_dim, dtype=complex).T.reshape(probe_dim, probe_dim, 1))
    memo = MeasurementModel(probe_dim, probe0, u, pointer)
    ins = memo_to_instrument(memo)
    a = induced_observable(ins)
    rho = State(random_density(2, rng))
    p_direct = outcome_distribution(a, rho)
    total = 0.0
    for x, px in zip(a.outcomes, p_direct):
        big = u @ tensor(rho.matrix, probe0.matrix) @ dag(u)
        p_memo = np.trace(big @ tensor(np.eye(2), pointer.effect(x))).real
        assert abs(px - p_memo) < 1e-9
        total += px
        # operations are CP and trace-decreasing
        rep = certify(ins.operation(x))
        assert rep["cp"] and rep["trace_decreasing"]
    assert abs(total - 1) < 1e-9


def test_luders_on_sharp_observable_collapses():
    a = z_basis_povm()
    ins = luders(a)
    plus = State.from_ket(unit_ket([1, 1]))
    for k in range(2):
        out = conditional_output(ins, plus, k)
        assert np.abs(out.matrix - a.effect(k)).max() < 1e-10


def test_no_square_root_update_is_not_compatible():
    # rho -> A(x) rho A(x) fails the compatibility (and instrument) rules
    # for the unsharp effect diag(1/2, 1)
    e = np.diag([0.5, 1.0]).astype(complex)
    ops = (KrausChannel((e,)), KrausChannel((np.eye(2) - e,)))
    with pytest.raises(ValueError):
        DiscreteInstrument((0, 1), ops)
    rho = State.maximally_mixed(2)
    p_claimed = np.trace(rho.matrix @ e).real
    p_actual = np.trace(e @ rho.matrix @ e).real
    assert abs(p_claimed - p_actual) > 0.1


def test_conditional_output_trivial_instrument():
    xi = State(random_density(2, np.random.default_rng(4)))
    ins = trivial_instrument(unsharp_povm(), xi)
    rho = State(random_density(2, np.random.default_rng(5)))
    for x in ins.outcomes:
        out = conditional_output(ins, rho, x)
        assert np.abs(out.matrix - xi.matrix).max() < 1e-9


def test_conditional_output_sure_outcome_is_fixed():
    a = z_basis_povm()
    ins = luders(a)
    rho = State(np.diag([1.0, 0.0]))
    out = conditional_output(ins, rho, 0)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_conditional_output_zero_probability():
    ins = luders(z_basis_povm())
    with pytest.raises(ValueError):
        conditional_output(ins, State(np.diag([1.0, 0.0])), 1)


def test_sharp_luders_repeatable():
    assert is_repeatable(luders(z_basis_povm()))


def test_trivial_instrument_not_repeatable():
    xi = State.maximally_mixed(2)
    assert not is_repeatable(trivial_instrument(z_basis_povm(), xi))


def test_unsharp_luders_not_repeatable():
    assert not is_repeatable(luders(unsharp_povm()))


def test_repeatable_instrument_construction():
    a = z_basis_povm()
    ins = repeatable_instrument(a)
    assert is_repeatable(ins)
    b = induced_observable(ins)
    for ea, eb in zip(a.effects, b.effects):
        assert np.abs(ea - eb).max() < 1e-9


def test_repeatable_instrument_impossible():
    half = Povm((0, 1), (np.eye(2) / 2, np.eye(2) / 2))
    with pytest.raises(ValueError) as err:
        repeatable_instrument(half)
    assert "0.5" in str(err.value)


def test_repeatable_instrument_mixed_sharpness():
    # all effects carry eigenvalue 1 without all being projections
    e1 = np.diag([1.0, 0.3, 0.0]).astype(complex)
    e2 = np.eye(3) - e1
    a = Povm((0, 1), (e1, e2))
    ins = repeatable_instrument(a)
    assert is_repeatable(ins)
    # a zero effect gets the zero operation
    with_zero = repeatable_instrument(Povm((0, 1, 2), (e1, e2, np.zeros((3, 3)))))
    assert is_repeatable(with_zero)
    assert not with_zero.operations[2].kraus_ops.any()


def test_repeated_outcomes_are_disjoint():
    ins = repeatable_instrument(z_basis_povm())
    rng = np.random.default_rng(6)
    rho = random_density(2, rng)
    for x in ins.outcomes:
        for y in ins.outcomes:
            if x != y:
                assert np.trace(ins.apply(y, ins.apply(x, rho))).real < 1e-10


def test_luders_disturbance():
    diag_a = z_basis_povm()
    diag_b = Povm((0, 1), (np.diag([0.3, 0.8]).astype(complex),
                           np.diag([0.7, 0.2]).astype(complex)))
    assert not luders_disturbs(diag_a, diag_b)
    assert luders_disturbs(z_basis_povm(), x_basis_povm())
    trivial = Povm((0,), (np.eye(2),))
    assert not luders_disturbs(trivial, x_basis_povm())
    with pytest.raises(ValueError):
        luders_disturbs(unsharp_povm(), diag_b)


def test_sigma_z_sum_is_half_identity():
    # the disturbed x-effect averages to I/2 under the z Lüders update
    a = z_basis_povm()
    b = x_basis_povm()
    total = sum(ea @ b.effect(0) @ ea for ea in a.effects)
    assert np.abs(total - np.eye(2) / 2).max() < 1e-12


def test_no_information_no_disturbance():
    xi = State.maximally_mixed(2)
    trivial_obs = Povm.trivial(2, (0.3, 0.7))
    ins = luders(trivial_obs)
    report = no_information_no_disturbance_check(ins)
    assert report["non_disturbing"] and report["observable_trivial"]
    report = no_information_no_disturbance_check(luders(z_basis_povm()))
    assert not report["non_disturbing"]
    # scaled-identity instrument induces a trivial observable
    ops = (
        KrausChannel((np.sqrt(0.4) * np.eye(2, dtype=complex),)),
        KrausChannel((np.sqrt(0.6) * np.eye(2, dtype=complex),)),
    )
    report = no_information_no_disturbance_check(DiscreteInstrument((0, 1), ops))
    assert report["non_disturbing"] and report["observable_trivial"]


def test_normal_memo_realizes_instrument():
    rng = np.random.default_rng(7)
    for a in (z_basis_povm(), unsharp_povm()):
        ins = luders(a)
        memo = instrument_to_normal_memo(ins)
        assert memo.probe_state.is_pure()
        from qitools.observables import is_sharp

        assert is_sharp(memo.pointer)
        rebuilt = memo_to_instrument(memo)
        rho = random_density(2, rng)
        for x in ins.outcomes:
            assert np.abs(rebuilt.apply(x, rho) - ins.apply(x, rho)).max() < 1e-8


def test_repeat_trace_identity_equals_outcome_disjointness():
    # the repeat-trace identity holds exactly when repeated distinct
    # outcomes have vanishing probability
    rng = np.random.default_rng(8)
    candidates = [
        repeatable_instrument(z_basis_povm()),
        luders(z_basis_povm()),
        luders(unsharp_povm()),
        trivial_instrument(z_basis_povm(), State(random_density(2, rng))),
    ]
    for ins in candidates:
        rhos = [State(random_density(2, rng)) for _ in range(5)]
        identity_holds = all(
            abs(
                np.trace(ins.apply(x, ins.apply(x, rho))).real
                - np.trace(ins.apply(x, rho)).real
            )
            < 1e-7
            for x in ins.outcomes
            for rho in rhos
        )
        disjoint = all(
            np.trace(ins.apply(y, ins.apply(x, rho))).real < 1e-7
            for x in ins.outcomes
            for y in ins.outcomes
            if x != y
            for rho in rhos
        )
        assert identity_holds == disjoint
        assert identity_holds == is_repeatable(ins)


def memo_to_instrument_per_effect(m, tol=1e-8):
    """Reference: one einsum per pointer effect, through the superoperator."""
    d = m.system_dim
    k = m.probe_dim
    v = m.coupling.reshape(d, k, d, k)
    ops = []
    for eff in m.pointer.effects:
        # S[(a, e), (b, c)] = sum V[a,p,b,q] rho_0[q,r] conj(V[e,s,c,r]) F[s,p]
        s = np.einsum("apbq,qr,escr,sp->aebc", v, m.probe_state.matrix, v.conj(),
                      eff, optimize=True)
        ops.append(from_choi(_superop_to_choi(s.reshape(d * d, d * d), d, d), tol))
    return ops


@pytest.mark.parametrize("d, k", [(2, 3), (3, 4), (4, 9)])
def test_memo_to_instrument_matches_the_per_effect_contraction(d, k):
    rng = np.random.default_rng(100 * d + k)
    g = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
    parts = g.conj().transpose(0, 2, 1) @ g
    vals, vecs = np.linalg.eigh(parts.sum(axis=0))
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    pointer = Povm((0, 1, 2), inv_root @ parts @ inv_root)  # three full-rank effects
    m = MeasurementModel(k, State(random_density(k, rng)), haar_unitary(d * k, rng), pointer)
    ins = memo_to_instrument(m)
    for op, ref in zip(ins.operations, memo_to_instrument_per_effect(m), strict=True):
        assert len(op.kraus_ops) == len(ref.kraus_ops)
        assert np.abs(to_choi(op).matrix - to_choi(ref).matrix).max() <= 1e-12


def test_an_instrument_reads_its_outcome_labels_as_a_povm_does():
    ops = ((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),))
    with pytest.raises(ValueError, match="^outcome labels must be distinct$"):
        DiscreteInstrument(("a", "a"), ops)
    with pytest.raises(ValueError, match="^outcome labels must be distinct$"):
        Povm(("a", "a"), tuple(op[0] for op in ops))
    assert induced_observable(DiscreteInstrument(("a", "b"), ops)).outcomes == ("a", "b")


def test_a_measurement_model_reads_its_probe_state_as_a_state():
    memo = instrument_to_normal_memo(luders(z_basis_povm()))
    probe = np.array(memo.probe_state.matrix)
    m = MeasurementModel(memo.probe_dim, probe, memo.coupling, memo.pointer)
    assert isinstance(m.probe_state, State)
    assert np.array_equal(m.probe_state.matrix, memo.probe_state.matrix)
    ops = memo_to_instrument(m).operations
    assert all(np.array_equal(a.kraus_ops, b.kraus_ops)
               for a, b in zip(ops, memo_to_instrument(memo).operations))
    with pytest.raises(ValueError, match="^state trace is 2.0, not 1$"):
        MeasurementModel(memo.probe_dim, 2 * probe, memo.coupling, memo.pointer)
