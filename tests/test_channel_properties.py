"""Each channel property has one implementation and one threshold.

TP and unitality are measured in the scale of the trace-one Choi matrix:
max |N - I| / d_in and max |E(I) - I| / d_in against tol, with N the sum
of A^dag A.  The KrausChannel predicates, ``certify`` on the Kraus list and
``certify`` on the Choi matrix must agree on either side of the threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitools.channels import (AffineRep, ChoiMatrix, KrausChannel, affine_to_choi, certify,
                              heisenberg_dual, qubit_cp_check, qubit_diagonal_choi, to_choi)
from qitools.instruments import DiscreteInstrument
from qitools.observables import Povm
from qitools.states import State

DEFINITIONS = {
    "tp": lambda ops: sum(a.conj().T @ a for a in ops),
    "unital": lambda ops: sum(a @ a.conj().T for a in ops),
}


def perturbed_channel(seed, d_in, d_out, eps):
    """Kraus list of an isometry C^d_in -> C^d_out (x) C^d_in, moved by eps off TP."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out * d_in, d_in)) + 1j * rng.standard_normal((d_out * d_in, d_in))
    v = np.linalg.qr(g)[0]
    ops = [v.reshape(d_out, d_in, d_in)[:, k, :] for k in range(d_in)]
    noise = rng.standard_normal((2, d_out, d_in))
    ops[0] = ops[0] + eps * (noise[0] + 1j * noise[1])
    return KrausChannel(tuple(ops))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_in=st.integers(1, 3),
    d_out=st.integers(1, 3),
    eps=st.sampled_from([1e-12, 1e-9, 1e-6]),
    prop=st.sampled_from(sorted(DEFINITIONS)),
    dual=st.booleans(),
    side=st.sampled_from([-1, 1]),
)
def test_predicates_agree_with_certify_around_the_threshold(seed, d_in, d_out, eps, prop, dual,
                                                            side):
    ch = perturbed_channel(seed, d_in, d_out, eps)
    if dual:
        ch = heisenberg_dual(ch)
    x = DEFINITIONS[prop](ch.kraus_ops)
    err = np.max(np.abs(x - np.eye(len(x)))) / ch.in_dim
    tol = err * (1 + side * 1e-3)
    # tol is scaled by max(1, ||x / d_in||_2), which exceeds 1 only far from the property.
    expected = bool(err <= tol * max(1.0, np.linalg.norm(x, 2) / ch.in_dim))
    predicate = ch.is_trace_preserving if prop == "tp" else ch.is_unital
    assert predicate(tol) is expected
    assert certify(ch, tol)[prop] is expected
    assert certify(to_choi(ch), tol)[prop] is expected


def test_unitality_is_read_in_the_input_scale():
    # C^1 -> C^2 with E(1) = diag(1 + delta, 1): the error delta / d_in is
    # compared with tol, no longer delta with tol * d_out.
    delta = 1.5e-9
    ch = KrausChannel((np.array([[np.sqrt(1 + delta)], [0.0]]), np.array([[0.0], [1.0]])))
    assert not ch.is_unital() and not certify(ch)["unital"]
    assert ch.is_unital(2e-9) and certify(ch, 2e-9)["unital"]


@pytest.mark.parametrize("d", [2, 4])
def test_state_trace_is_checked_at_atol(d):
    m = np.eye(d) / d
    State(m * (1 + 0.5e-9))
    with pytest.raises(ValueError, match="state trace"):
        State(m * (1 + 2e-9))


@pytest.mark.parametrize("d", [2, 4])
def test_povm_sum_is_checked_at_atol(d):
    eye = np.eye(d, dtype=complex)
    Povm((0, 1), (eye / 2, eye / 2 * (1 + 0.5e-9)))
    with pytest.raises(ValueError, match="do not sum to the identity"):
        Povm((0, 1), (eye / 2, eye / 2 * (1 + 4e-9)))


def test_instrument_total_is_checked_at_atol():
    ops = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2)]
    DiscreteInstrument((0, 1), ((ops[0],), (ops[1] * (1 + 0.5e-9),)))
    with pytest.raises(ValueError, match="not trace-preserving"):
        DiscreteInstrument((0, 1), ((ops[0],), (ops[1] * (1 + 4e-9),)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lmbda=st.lists(st.floats(-1, 1), min_size=3, max_size=3),
       t=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
def test_qubit_cp_check_agrees_with_certify(lmbda, t):
    choi = ChoiMatrix(qubit_diagonal_choi(lmbda, t) / 2, 2, 2)
    assert qubit_cp_check(lmbda, t)["cp"] == certify(choi)["cp"]
    # The qubit Choi matrix is in the (E (x) I) order of every other Choi matrix.
    generic = certify(affine_to_choi(AffineRep(np.diag(lmbda), t, 2)))
    keys = ("cp", "tp", "unital", "trace_decreasing")
    assert [certify(choi)[k] for k in keys] == [generic[k] for k in keys]


def test_a_translated_qubit_map_is_trace_preserving_and_not_unital():
    report = certify(ChoiMatrix(qubit_diagonal_choi((0, 0, 0), (0, 0, 0.5)) / 2, 2, 2))
    assert report["tp"] and not report["unital"]
    rep = qubit_cp_check((0, 0, 0), (0, 0, 0.5))
    assert np.array_equal(rep["choi"], 2 * affine_to_choi(AffineRep(np.zeros((3, 3)),
                                                                    (0, 0, 0.5), 2)).matrix)


# lambda = -1/3 - delta in every direction gives Phi the eigenvalue -1.5 delta,
# so Omega = Phi / 2 has -0.75e-9 at delta = 1e-9: inside tol in the Choi scale.
@pytest.mark.parametrize("l", [-1 / 3, -1 / 3 - 1e-9, -1 / 3 - 2e-9, 1, -1])
def test_qubit_cp_check_agrees_with_certify_on_the_boundary(l):
    choi = ChoiMatrix(qubit_diagonal_choi((l, l, l), (0, 0, 0)) / 2, 2, 2)
    assert qubit_cp_check((l, l, l), (0, 0, 0))["cp"] == certify(choi)["cp"]
