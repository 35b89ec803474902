"""Carrier boundaries: each array a carrier holds is a checked, read-only copy
of the caller's, and every dataclass that holds an array compares by identity."""

import re

import numpy as np
import pytest

from qitools import channels
from qitools.channels import AffineRep, ChiMatrix, make, to_chi
from qitools.discrimination import helstrom
from qitools.entanglement import (BipartiteState, certify_witness, chsh_operator, schmidt,
                                  witness_evaluate)
from qitools.instruments import MeasurementModel, instrument_to_normal_memo, luders
from qitools.observables import Effect, Povm, stern_gerlach
from qitools.protocols import (Processor, ShiftMultiplyBasis, _b92_tables, b92,
                               controlled_unitary_processor)
from qitools.states import PAULI_X, BlochVector, State

S2 = 1 / np.sqrt(2)


def chsh_witness_operator() -> np.ndarray:
    """2 I + B_CHSH at the Tsirelson directions: a witness that detects the singlet."""
    return 2 * np.eye(4, dtype=complex) + chsh_operator(
        (1, 0, 0), (0, 1, 0), (S2, S2, 0), (S2, -S2, 0))


def test_witness_holds_a_frozen_copy_of_the_callers_operator():
    w = chsh_witness_operator()
    witness = certify_witness(w, 2, 2, restarts=8)
    w[:] = -np.eye(4)  # the caller's array stays writable and is not the witness
    assert not witness.matrix.flags.writeable
    product = BipartiteState(State(np.diag([1, 0, 0, 0]).astype(complex)), 2, 2)
    value, verdict = witness_evaluate(witness, product)
    assert verdict == "inconclusive" and value == pytest.approx(2.0)


def test_bloch_vector_copies_checks_and_freezes_its_components():
    c = np.array([0.1, 0.2, 0.3])
    b = BlochVector(2, c)
    c[0] = 0.9
    assert c.flags.writeable and b.components[0] == 0.1
    assert not b.components.flags.writeable
    with pytest.raises(ValueError, match=r"Bloch component\[1\]: entries must be finite"):
        BlochVector(2, [0.1, np.nan, 0.3])


def test_measurement_model_copies_checks_and_freezes_its_coupling():
    memo = instrument_to_normal_memo(luders(stern_gerlach([0, 0, 1])))
    u = np.array(memo.coupling)
    m = MeasurementModel(memo.probe_dim, memo.probe_state, u, memo.pointer)
    u[0, 0] = 5
    assert u.flags.writeable and m.coupling[0, 0] == memo.coupling[0, 0]
    assert not m.coupling.flags.writeable
    u = np.array(memo.coupling)
    u[1, 2] = np.nan
    entry = re.escape(f"coupling[{u.shape[1] + 2}]: entries must be finite")
    with pytest.raises(ValueError, match=entry):
        MeasurementModel(memo.probe_dim, memo.probe_state, u, memo.pointer)


def test_affine_rep_copies_checks_and_freezes_its_arrays():
    T, t = np.diag([0.5, 0.5, 0.5]), np.zeros(3)
    aff = AffineRep(T, t, 2)
    assert T.flags.writeable and t.flags.writeable
    assert not aff.T.flags.writeable and not aff.t.flags.writeable
    T[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"T\[0\]: entries must be finite"):
        AffineRep(T, t, 2)
    with pytest.raises(ValueError, match="t shape does not match the declared dimensions"):
        AffineRep(np.eye(3), np.zeros(2), 2)


def test_chi_matrix_copies_checks_and_freezes_its_arrays():
    chi = to_chi(make("depolarizing", d=2, p=0.3))
    m, basis = np.array(chi.matrix), [np.array(e) for e in chi.basis]
    rebuilt = ChiMatrix(m, basis)
    assert m.flags.writeable and basis[0].flags.writeable
    assert not rebuilt.matrix.flags.writeable
    assert not any(e.flags.writeable for e in rebuilt.basis)
    m[0, 1] = np.nan
    with pytest.raises(ValueError, match=r"chi matrix\[1\]: entries must be finite"):
        ChiMatrix(m, basis)
    basis[2][1, 1] = np.inf
    with pytest.raises(ValueError, match=r"chi basis operator 2\[3\]: entries must be finite"):
        ChiMatrix(chi.matrix, basis)


def test_povm_holds_one_read_only_stack():
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for effects in ((up, down), [Effect(up), down], np.array([up, down])):
        a = Povm((1, -1), effects)
        assert a.effects.shape == (2, 2, 2) and a.effects.dtype == complex
        assert not a.effects.flags.writeable
        assert np.array_equal(a.effect(-1), down)
    assert up.flags.writeable
    with pytest.raises(ValueError, match="POVM effects must share a shape"):
        Povm((1, 2), (np.eye(2), np.eye(3)))


def test_shift_multiply_basis_holds_read_only_stacks_in_key_order():
    basis = ShiftMultiplyBasis.build(3)
    assert basis.keys == tuple((r, s) for r in range(3) for s in range(3))
    assert basis.unitaries.shape == (9, 3, 3) and basis.bell_kets.shape == (9, 9, 1)
    assert not basis.unitaries.flags.writeable and not basis.bell_kets.flags.writeable


def test_processor_holds_a_frozen_checked_copy_of_its_unitary():
    u = np.eye(4)
    proc = Processor(2, 2, u)
    rho, program = np.diag([0.75, 0.25]), np.array([[1.0], [0.0]])
    before = proc.apply(rho, program)
    u[:] = 0  # the caller's array stays writable and is not the processor's
    assert np.array_equal(proc.apply(rho, program), before)
    assert np.abs(before - rho).max() < 1e-15
    assert not proc.unitary.flags.writeable
    with pytest.raises(ValueError, match="processor unitary shape"):
        Processor(2, 3, np.eye(4))
    with pytest.raises(ValueError, match=r"processor unitary\[0\]: entries must be finite"):
        Processor(1, 1, [[np.nan]])


def test_schmidt_data_holds_frozen_copies():
    data = schmidt(np.array([1, 0, 0, 1]) * S2, 2, 2)
    for a in (data.coefficients, data.left, data.right):
        assert not a.flags.writeable
    assert data.coefficients.dtype == float
    assert np.abs(data.reconstruct().ravel() - np.array([1, 0, 0, 1]) * S2).max() < 1e-15


def test_b92_reads_one_read_only_table_per_overlap():
    b92(10, 0.5, rng=0)
    cdf, templates, _ = _b92_tables(0.5)
    b92(10, 0.5, rng=1)
    assert _b92_tables(0.5)[0] is cdf
    outcomes = [r["outcome"] for r in templates[:cdf.shape[1]]]
    assert outcomes == ["1", "2", "?"] and not cdf.flags.writeable
    assert _b92_tables.cache_info().maxsize is not None


CARRIERS = {
    "State": lambda: State.maximally_mixed(2),
    "Effect": lambda: Effect(np.eye(2) / 2),
    "Povm": lambda: stern_gerlach([0, 0, 1]),
    "BlochVector": lambda: BlochVector(2, [0.1, 0.2, 0.3]),
    "BipartiteState": lambda: BipartiteState(State.maximally_mixed(4), 2, 2),
    "SchmidtData": lambda: schmidt(np.array([1, 0, 0, 1]) * S2, 2, 2),
    "Witness": lambda: certify_witness(chsh_witness_operator(), 2, 2, restarts=8),
    "DiscriminationResult": lambda: helstrom(np.diag([1, 0]), np.diag([0, 1])),
    "DiscreteInstrument": lambda: luders(stern_gerlach([0, 0, 1])),
    "MeasurementModel": lambda: instrument_to_normal_memo(luders(stern_gerlach([0, 0, 1]))),
    "ShiftMultiplyBasis": lambda: ShiftMultiplyBasis.build(2),
    "Processor": lambda: controlled_unitary_processor([np.eye(2), PAULI_X]),
}


@pytest.mark.parametrize("build", CARRIERS.values(), ids=CARRIERS)
def test_array_carriers_compare_by_identity(build):
    x = build()
    assert (x == x) is True
    assert (x == build()) is False
    assert {x: 1}[x] == 1


MAP_FUNCTIONS = {
    "to_choi": lambda x, k: channels.to_choi(x),
    "certify": lambda x, k: channels.certify(x),
    "compose_outer": lambda x, k: channels.compose(x, k),
    "compose_inner": lambda x, k: channels.compose(k, x),
    "to_chi": lambda x, k: channels.to_chi(x),
    "to_affine": lambda x, k: channels.to_affine(x),
    "sup_distance": lambda x, k: channels.sup_distance(x, k, restarts=2),
    "process_fidelity": lambda x, k: channels.process_fidelity(x, k),
    "kraus_equivalent": lambda x, k: channels.kraus_equivalent(x, k),
    "apply": lambda x, k: channels.apply(x, np.eye(2) / 2),
}


@pytest.mark.parametrize("carrier", ["ChiMatrix", "AffineRep"])
@pytest.mark.parametrize("name", sorted(MAP_FUNCTIONS))
def test_map_functions_reject_a_chi_or_affine_carrier_by_type(name, carrier):
    dep = make("depolarizing", d=2, p=0.3)
    x = to_chi(dep) if carrier == "ChiMatrix" else channels.to_affine(dep)
    message = f"^cannot read a map from {carrier}: pass a KrausChannel, ChoiMatrix or LinearMap"
    with pytest.raises(TypeError, match=message):
        MAP_FUNCTIONS[name](x, dep)
    # the conversions named in the message read the carrier
    converted = channels.chi_to_kraus(x) if carrier == "ChiMatrix" else channels.affine_to_choi(x)
    assert channels.certify(converted)["cp"]
