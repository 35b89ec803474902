"""Discrete instruments, measurement models, Lüders machinery, repeatability."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (ATOL, _frozen_copy, _kraus_columns, _prepare_kraus, basis_ket, eigh,
                     is_unitary, outer, psd_sqrt)
from .channels import ChoiMatrix, KrausChannel, _dilation_unitary, _superop, apply, from_choi
from .observables import UNIT_EIGENVALUE_TOL, Povm, _outcome_labels, is_sharp
from .states import State, _as_matrix, _operator_basis


@dataclass(frozen=True, eq=False)
class DiscreteInstrument:
    """Outcome-labeled trace-decreasing operations with trace-preserving total."""

    outcomes: tuple
    operations: tuple  # one Kraus list per outcome

    def __post_init__(self):
        ops = tuple(op if isinstance(op, KrausChannel) else KrausChannel(op)
                    for op in self.operations)
        outs = _outcome_labels(self.outcomes, len(ops), "need one operation per outcome")
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "operations", ops)
        if not self.total_channel().is_trace_preserving():
            raise ValueError("total operation is not trace-preserving")

    @property
    def dim(self) -> int:
        return self.operations[0].in_dim

    def operation(self, outcome) -> KrausChannel:
        return self.operations[self.outcomes.index(outcome)]

    def apply(self, outcome, rho) -> np.ndarray:
        return apply(self.operation(outcome), rho)

    def total_channel(self) -> KrausChannel:
        return KrausChannel(np.concatenate([op.kraus_ops for op in self.operations]))


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Probe space, probe state (read as a ``State``), unitary coupling, pointer observable."""

    probe_dim: int
    probe_state: State
    coupling: np.ndarray = field(repr=False)
    pointer: Povm

    def __post_init__(self):
        u = _frozen_copy(self.coupling, "coupling")
        if not is_unitary(u, 1e-8):
            raise ValueError("coupling must be unitary")
        object.__setattr__(self, "probe_state", State(self.probe_state))
        if self.probe_state.dim != self.probe_dim or self.pointer.dim != self.probe_dim:
            raise ValueError("probe state and pointer must live on the probe space")
        if u.shape[0] % self.probe_dim != 0:
            raise ValueError("coupling dimension must be system*probe")
        object.__setattr__(self, "coupling", u)

    @property
    def system_dim(self) -> int:
        return self.coupling.shape[0] // self.probe_dim


def induced_observable(ins: DiscreteInstrument) -> Povm:
    """POVM with effects sum_k A_{x,k}^dag A_{x,k} (dual of each operation at I)."""
    effs = tuple(op.normalization() for op in ins.operations)
    return Povm(ins.outcomes, effs)


def luders(a: Povm) -> DiscreteInstrument:
    """Lüders instrument: I_x(rho) = A(x)^(1/2) rho A(x)^(1/2)."""
    ops = tuple(KrausChannel((psd_sqrt(e),)) for e in a.effects)
    return DiscreteInstrument(a.outcomes, ops)


def trivial_instrument(a: Povm, xi: State) -> DiscreteInstrument:
    """I_x(rho) = tr[rho A(x)] xi, with xi = sum_j c_j c_j^dag spectrally."""
    cols = _kraus_columns(*eigh(_as_matrix(xi)), ATOL)
    terms = tuple(KrausChannel(_prepare_kraus(cols, psd_sqrt(e))) for e in a.effects)
    return DiscreteInstrument(a.outcomes, terms)


def memo_to_instrument(m: MeasurementModel) -> DiscreteInstrument:
    """Instrument induced by a measurement model.

    I_x(rho) = tr_probe[V (rho (x) rho_0) V^dag (I (x) F(x))].  Every
    outcome's Choi matrix comes from one contraction with W = V rho_0 and
    one batched product with conj(V), then is read in Kraus form.
    """
    d, k = m.system_dim, m.probe_dim
    v = m.coupling.reshape(d, k, d, k)
    # T[x, a, b, s, r] = sum_p F_x[s, p] W[a, p, b, r]
    t = np.einsum("xsp,apbr->xabsr", m.pointer.effects, v @ m.probe_state.matrix)
    # d Omega_x[(a, b), (e, c)] = sum_{s, r} T[x, a, b, s, r] conj(V[e, s, c, r])
    chois = t.reshape(-1, d * d, k * k) @ v.conj().transpose(1, 3, 0, 2).reshape(k * k, d * d) / d
    ops = tuple(from_choi(ChoiMatrix(c, d, d), 1e-8) for c in chois)
    return DiscreteInstrument(m.pointer.outcomes, ops)


def instrument_to_normal_memo(ins: DiscreteInstrument) -> MeasurementModel:
    """Constructive normal measurement model realizing a discrete instrument.

    The outcome-tagged total channel rho -> sum_x I_x(rho) (x) |x><x| is
    dilated; the probe is pointer (x) environment with a sharp pointer
    reading out the outcome tag.
    """
    n_out = len(ins.outcomes)
    tags = np.eye(n_out, dtype=complex)
    ops = ins.total_channel().kraus_ops
    tag = np.repeat(tags, [len(op.kraus_ops) for op in ins.operations], axis=0)  # x of each A_m
    # Each B_m = A_m (x) |x_m> maps system -> system (x) tag; the probe is tag (x) environment.
    tagged = np.einsum("mab,mt->matb", ops, tag).reshape(len(ops), -1, ins.dim)
    probe_dim = n_out * len(ops)
    u = _dilation_unitary(tagged, probe_dim)
    probe0 = outer(basis_ket(probe_dim, 0))
    pointer = Povm(ins.outcomes, tuple(np.diag(np.repeat(t, len(ops))) for t in tags))
    return MeasurementModel(probe_dim, probe0, u, pointer)


def conditional_output(ins: DiscreteInstrument, rho, x) -> State:
    """Normalized post-measurement state for an observed outcome."""
    out = ins.apply(x, rho)
    p = np.trace(out).real
    if p <= ATOL:
        raise ValueError(f"conditional state undefined: outcome {x!r} has probability {p:.3e}")
    return State(out / p)


def is_repeatable(ins: DiscreteInstrument) -> bool:
    """tr[I_x(I_x(rho))] = tr[I_x(rho)] checked on a spanning operator basis."""
    s = np.stack([_superop(op) for op in ins.operations])
    once = s @ _operator_basis(ins.dim)  # column j of once[x] is vec(I_x(basis op j))
    twice = s @ once
    vec_id = np.eye(ins.dim).reshape(-1)
    return bool(np.all(np.abs((vec_id @ twice).real - (vec_id @ once).real) <= UNIT_EIGENVALUE_TOL))


def repeatable_instrument(a: Povm) -> DiscreteInstrument:
    """A-compatible repeatable instrument I_x(rho) = tr[rho A(x)] P_{psi_x}.

    Exists iff every nonzero effect has eigenvalue 1; otherwise raises
    with the offending maximal eigenvalue.
    """
    ops = []
    for mat in a.effects:
        if np.max(np.abs(mat)) <= ATOL:
            ops.append(KrausChannel((np.zeros_like(mat),)))
            continue
        vals, vecs = np.linalg.eigh(mat)
        if abs(vals[-1] - 1) >= UNIT_EIGENVALUE_TOL:
            raise ValueError(
                "impossible: repeatable instruments need every nonzero effect to "
                f"have eigenvalue 1 (max eigenvalue {vals[-1]:.6f})"
            )
        ops.append(KrausChannel(_prepare_kraus(vecs[:, [-1]], psd_sqrt(mat))))
    return DiscreteInstrument(a.outcomes, tuple(ops))


def luders_disturbs(a: Povm, b: Povm) -> bool:
    """Whether a sharp Lüders measurement of A disturbs the statistics of B.

    Disturbance occurs exactly when some pair [A(x), B(y)] fails to
    commute; both characterizations are evaluated and must agree.
    """
    if not is_sharp(a):
        raise ValueError("the measured observable must be sharp")
    disturbed = noncommuting = False
    for eb in b.effects:  # against every A(x) at once
        ab = a.effects @ eb
        disturbed |= bool(np.abs((ab @ a.effects).sum(axis=0) - eb).max() > 1e-8)
        noncommuting |= bool(np.abs(ab - eb @ a.effects).max() > 1e-8)
    if disturbed != noncommuting:
        raise AssertionError("disturbance and commutation checks disagree")
    return disturbed


def no_information_no_disturbance_check(ins: DiscreteInstrument) -> dict:
    """Check the no-information-without-disturbance trade-off.

    If every operation acts as I_x(rho) = c_x rho on a spanning basis,
    the induced observable must be trivial; the report states which side
    holds.
    """
    d = ins.dim
    g = _operator_basis(d)
    images = np.stack([_superop(op) for op in ins.operations]) @ g
    # c_x = tr[I_x(I / d)]; the first basis column is vec(I).
    c = (images[:, :, 0] @ g[:, 0]).real / d
    non_disturbing = bool(np.max(np.abs(images - c[:, None, None] * g)) <= 1e-8)
    obs = induced_observable(ins)
    scale = np.trace(obs.effects, axis1=1, axis2=2) / d
    trivial = bool(np.abs(obs.effects - scale[:, None, None] * np.eye(d)).max() <= 1e-8)
    if non_disturbing and not trivial:
        raise AssertionError("non-disturbing instrument induced a nontrivial observable")
    return {"non_disturbing": non_disturbing, "observable_trivial": trivial}
