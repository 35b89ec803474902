"""Rejections that no other test reaches, each matched by its exact message."""

import re

import numpy as np
import pytest

from qitools.channels import (KrausChannel, apply, conjugate, fixed_point, kraus_equivalent, make,
                              qubit_normal_form, stinespring, sup_distance, to_affine)
from qitools.discrimination import unambiguous_mixture_povm
from qitools.entanglement import (BipartiteState, Witness, chsh_value, max_entangled_fraction,
                                  schmidt, werner)
from qitools.instruments import DiscreteInstrument, MeasurementModel
from qitools.linalg import _seesaw, basis_ket, norms, partial_trace, polar
from qitools.observables import Povm, coarse_grain, outcome_distribution
from qitools.protocols import b92, bb84, processor_pair
from qitools.states import BlochVector, interference_term, von_neumann_entropy

P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
POINTER = Povm((0, 1), (P0, P1))
ID2, ID3 = KrausChannel([np.eye(2)]), KrausChannel([np.eye(3)])
HALF = KrausChannel([np.eye(2) / 2])  # trace-decreasing
EMBED = KrausChannel([np.eye(3)[:, :2]])  # a trace-preserving map from C^2 into C^3
DIRS = ([0, 0, 1], [1, 0, 0], [0, 0, 1], [1, 0, 0])


@pytest.mark.parametrize("call, message", [
    # channels
    (lambda: apply(ID2, np.eye(3) / 3), "operator dimension does not match the map input"),
    (lambda: to_affine(EMBED), "affine representation requires equal dimensions"),
    (lambda: kraus_equivalent(ID2, ID3), "channels must share dimensions"),
    (lambda: sup_distance(ID2, ID3), "channels must share dimensions"),
    (lambda: stinespring(HALF),
     "Stinespring dilation implemented for trace-preserving channels"),
    (lambda: stinespring(ID2, tol=10), "channel has no nonzero Kraus operators"),
    (lambda: conjugate(HALF), "conjugate channel implemented for trace-preserving channels"),
    (lambda: make("identity", d=2), "unknown channel kind 'identity'"),
    (lambda: qubit_normal_form(ID3), "normal form is defined for qubit channels"),
    (lambda: fixed_point(HALF, np.eye(2) / 2),
     "fixed-point iteration requires a trace-preserving channel"),
    # discrimination
    (lambda: unambiguous_mixture_povm(basis_ket(2, 0), basis_ket(2, 1), 1.0),
     "mixing weight must satisfy 0 < q < 1"),
    # entanglement
    (lambda: Witness(np.diag([1.0, -1.0, 1.0, 1.0]), -0.5, -1.0),
     "operator is negative on a product state; not a witness"),
    (lambda: schmidt(np.ones(3) / np.sqrt(3), 2, 2), "ket length must be dA*dB"),
    (lambda: schmidt(np.ones(4), 2, 2), "ket must be normalized"),
    (lambda: chsh_value(werner(3, 0.2), *DIRS), "the CHSH test addresses two-qubit states"),
    (lambda: max_entangled_fraction(BipartiteState(np.eye(6) / 6, 2, 3)),
     "maximally entangled fraction needs equal local dimensions"),
    # instruments
    (lambda: DiscreteInstrument(("a",), ((P0,), (P1,))), "need one operation per outcome"),
    (lambda: MeasurementModel(2, np.eye(2) / 2, np.ones((4, 4)), POINTER),
     "coupling must be unitary"),
    (lambda: MeasurementModel(3, np.eye(2) / 2, np.eye(6), POINTER),
     "probe state and pointer must live on the probe space"),
    (lambda: MeasurementModel(2, np.eye(2) / 2, np.eye(3), POINTER),
     "coupling dimension must be system*probe"),
    # linalg
    (lambda: partial_trace(np.eye(4), 2, 2, side="C"), "side must be 'A' or 'B'"),
    (lambda: polar(np.ones((2, 3))), "polar decomposition requires a square matrix"),
    (lambda: norms(np.ones((2, 3))), "norms are defined here for square matrices"),
    (lambda: _seesaw(lambda x: (x, np.zeros(len(x))), np.zeros((0, 2)), 10, 1e-9),
     "at least one start is required"),
    # observables
    (lambda: Povm((0,), (P0, P1)), "outcomes and effects must have the same length"),
    (lambda: Povm((0, 0), (P0, P1)), "outcome labels must be distinct"),
    (lambda: outcome_distribution(POINTER, np.eye(3) / 3),
     "state and POVM dimensions do not match"),
    (lambda: outcome_distribution(POINTER, np.diag([2.0, -1.0])),
     "outcome probabilities are inconsistent"),
    (lambda: coarse_grain(POINTER, np.eye(3)),
     "stochastic matrix rows must match the POVM outcomes"),
    # protocols
    (lambda: bb84(10, eve="listen"), "eve must be 'none' or 'intercept_resend'"),
    (lambda: b92(10, overlap=1.0), "overlap must lie in [0, 1)"),
    (lambda: processor_pair(ID2, ID3), "both channels must share the system dimension"),
    # states
    (lambda: von_neumann_entropy(np.eye(2) / 2, base=10), "base must be 'e' or 2"),
    (lambda: BlochVector(2, [0.1, 0.2]), "expected 3 components, got (2,)"),
    (lambda: interference_term(basis_ket(2, 0), basis_ket(2, 1), 0, 0, np.eye(2)),
     "amplitudes must not both vanish"),
])
def test_rejections_no_other_test_reaches(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
