"""Executable protocol simulations exercising the toolkit end to end."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (ATOL, _frozen_copy, _probe_kraus, asarray, basis_ket, dag, inner,
                     is_unitary, outer, partial_trace, tensor)
from .observables import Povm, outcome_distribution
from .rand import random_ket, random_kets, rng_from
from .states import PAULIS, State

if TYPE_CHECKING:  # channels loads only when a function below needs it
    from .channels import KrausChannel, LinearMap


def _seed_repr(rng_arg) -> object:
    """JSON-friendly record of the randomness source."""
    if isinstance(rng_arg, np.random.Generator):
        return "external-generator"
    return rng_arg


@dataclass(frozen=True)
class ProtocolReport:
    """Simulation record: per-round data plus summary statistics and the seed."""

    protocol: str
    rounds: int
    records: tuple
    summary: dict
    seed: object

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "rounds": self.rounds,
            "seed": self.seed,
            "summary": self.summary,
            "records": list(self.records),
        }


@dataclass(frozen=True, eq=False)
class ShiftMultiplyBasis:
    """Shift-multiply unitaries U_rs and the Bell kets (U_rs (x) I) psi+.

    ``unitaries`` (d^2, d, d) and ``bell_kets`` (d^2, d^2, 1) are read-only
    stacks in the order of ``keys``: (r, s) row-major, entry r d + s.
    """

    d: int
    keys: tuple = field(repr=False)
    unitaries: np.ndarray = field(repr=False)
    bell_kets: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, d: int) -> "ShiftMultiplyBasis":
        from .entanglement import maximally_entangled_ket

        if d < 1:
            raise ValueError("dimension must be a positive integer")
        r, s, l = np.ogrid[:d, :d, :d]
        us = np.zeros((d, d, d, d), dtype=complex)  # us[r, s] = U_rs
        # The phase is divided by d as a real number: numpy divides a complex
        # array through the reciprocal, which rounds differently from d = 6 on.
        us[r, s, (l - r) % d, l] = np.exp(1j * (-2 * np.pi * s * l / d))
        # (U (x) I) psi+ = vec(U) / sqrt(d), with vec stacking the rows of U.
        kets = us.reshape(d * d, d * d, 1) * maximally_entangled_ket(d)[0]
        keys = tuple(divmod(k, d) for k in range(d * d))
        return cls(d, keys, _frozen_copy(us.reshape(-1, d, d), "shift-multiply unitary"),
                   _frozen_copy(kets, "Bell ket"))


# The per-d tables below are built once per process; their arrays are
# read-only, so every caller can share them.  A basis holds 2 d^4 complex
# entries, hence the bounded caches.

@lru_cache(maxsize=16)
def _shift_multiply(d: int) -> ShiftMultiplyBasis:
    """The shared ``ShiftMultiplyBasis.build(d)``."""
    return ShiftMultiplyBasis.build(d)


# ---------------------------------------------------------------------------
# Teleportation and superdense coding
# ---------------------------------------------------------------------------

def teleport(rho_in, rng=0) -> ProtocolReport:
    """Teleport a d-dimensional state through a maximally entangled pair.

    All d^2 Bell outcomes are enumerated: each occurs with probability
    1/d^2 and, after the matching correction, reproduces the input with
    fidelity 1.  A ``rho_in`` that is not a ``State`` is checked, and
    Hermitian-symmetrized, as one.
    """
    from .discrimination import fidelity

    rho = (rho_in if isinstance(rho_in, State) else State(rho_in)).matrix
    d = rho.shape[0]
    ks = _teleport_kraus(d)
    branches = ks @ rho @ ks.conj().transpose(0, 2, 1)  # Bob's corrected, unnormalized states
    probs = np.trace(branches, axis1=1, axis2=2).real
    fids = fidelity(branches / probs[:, None, None], rho).tolist()
    probs = probs.tolist()
    records = tuple(
        {"outcome": list(key), "probability": p, "fidelity": f}
        for key, p, f in zip(_shift_multiply(d).keys, probs, fids)
    )
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    sampled = rng.choice(len(records), p=probs)
    summary = {
        "probabilities": probs,
        "min_fidelity": min(fids),
        "sampled_outcome": records[sampled]["outcome"],
    }
    return ProtocolReport("teleport", len(records), records, summary, seed)


def teleport_channel(d: int) -> LinearMap:
    """The composed teleportation map (measure, correct, average): identity.

    Outcome rs contributes the Kraus operator U_rs (<beta_rs| (x) I)(I (x) |psi+>).
    """
    from .channels import KrausChannel, kraus_to_linear_map

    return kraus_to_linear_map(KrausChannel(_teleport_kraus(d)))


@lru_cache(maxsize=16)
def _teleport_kraus(d: int) -> np.ndarray:
    """Read-only stack of U_rs (<beta_rs| (x) I)(I (x) |psi+>) over the outcomes
    rs, in the order of the shift-multiply ``keys``.

    Alice's input and half of psi+ are measured in the Bell basis, and Bob
    corrects his half with U_rs: the map from Alice's input to Bob's output.
    """
    from .entanglement import maximally_entangled_ket

    basis = _shift_multiply(d)
    bell = basis.bell_kets.reshape(-1, d, d)  # beta[r, (a, a')]
    share = maximally_entangled_ket(d).reshape(d, d)  # psi+[(a', b)]
    # (<beta| (x) I)(I (x) |psi+>)[b, a] = sum_a' conj(beta[a, a']) psi+[a', b]
    measured = np.einsum("rxy,yb->rbx", bell.conj(), share)
    return _frozen_copy(basis.unitaries @ measured, "teleport Kraus operator")


def superdense(message: int, rng=0) -> ProtocolReport:
    """Send two classical bits through one qubit and a shared Bell pair."""
    if message not in range(4):
        raise ValueError("message must encode two bits (0..3)")
    from .entanglement import maximally_entangled_ket

    psi_plus = maximally_entangled_ket(2)
    encoded = tensor(PAULIS[message], np.eye(2)) @ psi_plus
    bell_kets = [tensor(PAULIS[j], np.eye(2)) @ psi_plus for j in range(4)]
    probs = [abs(inner(b, encoded)) ** 2 for b in bell_kets]
    marginal = partial_trace(outer(encoded), 2, 2, side="B")
    records = [
        {"message": message, "decoded": int(np.argmax(probs)), "probabilities": probs}
    ]
    summary = {
        "decoded": int(np.argmax(probs)),
        "decode_probability": float(max(probs)),
        "intercepted_marginal": marginal.tolist(),
    }
    return ProtocolReport("superdense", 1, tuple(records), summary, _seed_repr(rng))


# ---------------------------------------------------------------------------
# Key distribution
# ---------------------------------------------------------------------------

# A protocol's per-round records are copies of a few template dicts, built
# once per process.  The templates never leave this module; every record of
# a report is a fresh dict.

def _round_records(templates: tuple, codes: np.ndarray) -> tuple:
    """A fresh copy of ``templates[c]`` for each code ``c`` of ``codes``."""
    return tuple(map(dict.copy, map(templates.__getitem__, codes.tolist())))


@lru_cache(maxsize=None)
def _bb84_records() -> tuple:
    """The 96 BB84 record templates, indexed by the mixed-radix code of
    (alice basis, bob basis, alice bit, bob bit, eve bit 0, 1 or None, released)."""
    return tuple(
        {
            "alice_basis": ab,
            "bob_basis": bb,
            "alice_bit": xa,
            "bob_bit": yb,
            "eve_bit": eb,
            "sifted": ab == bb,
            "released": rl,
        }
        for ab, bb, xa, yb, eb, rl in product((0, 1), (0, 1), (0, 1), (0, 1), (0, 1, None),
                                              (False, True))
    )


@lru_cache(maxsize=None)
def _bb84_p_one() -> np.ndarray:
    """Read-only p_one[bit, prepared basis, measured basis]: probability of reading 1.

    Built once per process from the two measurement bases as ``Povm``s and
    the four prepared kets as ``State``s.
    """
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    e1 = np.array([[0.0], [1.0]], dtype=complex)
    plus = (e0 + e1) / np.sqrt(2)
    minus = (e0 - e1) / np.sqrt(2)
    kets = {(0, 0): e0, (1, 0): e1, (0, 1): plus, (1, 1): minus}
    bases = [Povm.from_basis([kets[(0, b)], kets[(1, b)]]) for b in (0, 1)]
    p_one = np.array(
        [
            [[outcome_distribution(bases[m], State.from_ket(kets[(x, b)]))[1] for m in (0, 1)]
             for b in (0, 1)]
            for x in (0, 1)
        ]
    )
    return _frozen_copy(p_one, "BB84 table", dtype=float)


def bb84(rounds: int, eve: str = "none", rng=0, sample_fraction: float = 0.25) -> ProtocolReport:
    """BB84 key distribution, optionally with an intercept-resend attacker.

    Reports the sift rate, the error rate on a released sample of the
    sifted key, and the fraction of sifted bits the attacker holds
    correctly.
    """
    if rounds < 1:
        raise ValueError("at least one round is required")
    if eve not in ("none", "intercept_resend"):
        raise ValueError("eve must be 'none' or 'intercept_resend'")
    if not 0 <= sample_fraction <= 1:
        raise ValueError("sample_fraction must lie in [0, 1]")
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    p_one = _bb84_p_one()
    a_basis, b_basis, x = rng.integers(2, size=(3, rounds))
    sent_bit, sent_basis, eve_code = x, a_basis, 2
    if eve == "intercept_resend":
        e_basis = rng.integers(2, size=rounds)
        eve_bit = (rng.random(rounds) < p_one[x, a_basis, e_basis]).astype(int)
        sent_bit, sent_basis, eve_code = eve_bit, e_basis, eve_bit
    y = (rng.random(rounds) < p_one[sent_bit, sent_basis, b_basis]).astype(int)
    sifted = a_basis == b_basis
    released = sifted & (rng.random(rounds) < sample_fraction)
    # The index of each round's template in _bb84_records; eve_code 2 stands for None.
    codes = ((((a_basis * 2 + b_basis) * 2 + x) * 2 + y) * 3 + eve_code) * 2 + released
    records = _round_records(_bb84_records(), codes)
    qber = float(np.mean(x[released] != y[released])) if released.any() else 0.0
    eve_fraction = (
        float(np.mean(eve_bit[sifted] == x[sifted]))
        if eve == "intercept_resend" and sifted.any()
        else None
    )
    summary = {
        "sift_rate": int(sifted.sum()) / rounds,
        "released_count": int(released.sum()),
        "qber": qber,
        "eve_correct_fraction": eve_fraction,
    }
    return ProtocolReport("bb84", rounds, records, summary, seed)


@lru_cache(maxsize=64)
def _b92_table(overlap: float) -> tuple[tuple, np.ndarray]:
    """(outcomes, read-only cdf) of the unambiguous B92 measurement at ``overlap``.

    cdf[bit] is the cumulative outcome distribution of the state Alice sends.
    """
    from .discrimination import unambiguous_two_pure

    theta = np.arccos(overlap)
    psi0 = np.array([[np.cos(theta / 2)], [np.sin(theta / 2)]], dtype=complex)
    psi1 = np.array([[np.cos(theta / 2)], [-np.sin(theta / 2)]], dtype=complex)
    povm = unambiguous_two_pure(psi0, psi1).povm
    cdf = np.cumsum([outcome_distribution(povm, State.from_ket(k)) for k in (psi0, psi1)], axis=1)
    cdf /= cdf[:, -1:]  # close the last bin at 1, so every u in [0, 1) lands in range
    return povm.outcomes, _frozen_copy(cdf, "B92 table", dtype=float)


@lru_cache(maxsize=64)
def _b92_records(overlap: float) -> tuple:
    """The B92 record templates at ``overlap``: entry x * len(outcomes) + k
    for Alice's bit x and the k-th outcome of ``_b92_table(overlap)``."""
    outcomes = _b92_table(overlap)[0]
    return tuple(
        {"alice_bit": xa, "outcome": o, "bob_bit": None if o == "?" else int(o) - 1}
        for xa in (0, 1)
        for o in outcomes
    )


def b92(rounds: int, overlap: float, rng=0) -> ProtocolReport:
    """B92 key distribution via optimal unambiguous discrimination.

    Conclusive rounds are error-free and occur at asymptotic rate
    1 - overlap.
    """
    if rounds < 1:
        raise ValueError("at least one round is required")
    if not 0 <= overlap < 1:
        raise ValueError("overlap must lie in [0, 1)")
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    outcomes, cdf = _b92_table(float(overlap))
    templates = _b92_records(float(overlap))
    x = rng.integers(2, size=rounds)
    idx = (rng.random(rounds)[:, None] >= cdf[x]).sum(axis=1)
    codes = x * len(outcomes) + idx
    bob = np.array([-1 if r["bob_bit"] is None else r["bob_bit"] for r in templates])[codes]
    conclusive = bob >= 0
    records = _round_records(templates, codes)
    summary = {
        "conclusive_rate": int(conclusive.sum()) / rounds,
        "conclusive_errors": int((conclusive & (bob != x)).sum()),
        "expected_rate": 1 - overlap,
    }
    return ProtocolReport("b92", rounds, records, summary, seed)


# ---------------------------------------------------------------------------
# Private quantum channel
# ---------------------------------------------------------------------------

def private_quantum_channel(d: int, n_messages: int, rng=0) -> ProtocolReport:
    """One-time-pad encryption of quantum states with shift-multiply keys.

    Bob decodes exactly with the shared key; without the key the average
    channel is the contraction to the total mixture, so the ciphertext
    carries no information.  The key costs 2 log2(d) bits per message.
    ``keyless_choi_deviation`` is the largest entry of the difference of
    the two Choi matrices, reported as 0.0 when it is at or below
    ``linalg.ATOL``, where only rounding noise remains.
    """
    if n_messages < 0:
        raise ValueError("n_messages must be non-negative")
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    basis = _shift_multiply(d)
    # The draw order, all keys and then all messages, fixes the seeded stream.
    picks = rng.integers(len(basis.keys), size=n_messages)
    (kets,) = random_kets([d], n_messages, rng)
    messages = kets[:, :, None]
    u = basis.unitaries[picks]
    u_dag = u.conj().transpose(0, 2, 1)
    bras = messages.conj().transpose(0, 2, 1)
    cipher = u @ (messages @ bras) @ u_dag
    decoded = u_dag @ cipher @ u
    # F(sigma, psi psi^dag) = sqrt(<psi|sigma|psi>), exact for a pure argument.
    fidelities = np.sqrt((bras @ decoded @ messages)[:, 0, 0].real)
    records = [
        {"key": list(basis.keys[j]), "decode_fidelity": f}
        for j, f in zip(picks.tolist(), fidelities.tolist())
    ]
    summary = {
        "keyless_choi_deviation": _pqc_keyless_gap(d),
        "min_decode_fidelity": min(r["decode_fidelity"] for r in records) if records else 1.0,
        "key_bits_total": 2 * n_messages * np.log2(d),
    }
    return ProtocolReport("private_quantum_channel", n_messages, tuple(records), summary, seed)


@lru_cache(maxsize=16)
def _pqc_keyless_gap(d: int) -> float:
    """``keyless_choi_deviation`` of the private quantum channel, which depends on d alone:
    the largest entry of the difference between the Choi matrices of the
    key-averaged channel and the contraction to I/d, or 0.0 at or below ATOL."""
    from .channels import KrausChannel, make, to_choi

    average = KrausChannel(_shift_multiply(d).unitaries / d)
    contraction = make("contraction", xi=State.maximally_mixed(d))
    gap = float(np.abs(to_choi(average).matrix - to_choi(contraction).matrix).max())
    return gap if gap > ATOL else 0.0


# ---------------------------------------------------------------------------
# Mean king
# ---------------------------------------------------------------------------

def _mean_king_basis() -> list[np.ndarray]:
    up = np.array([[1.0], [0.0]], dtype=complex)
    dn = np.array([[0.0], [1.0]], dtype=complex)
    e = lambda a, b: tensor(a, b)
    p = np.exp(1j * np.pi / 4)
    m = np.exp(-1j * np.pi / 4)
    s2 = 1 / np.sqrt(2)
    theta1 = s2 * e(up, dn) + 0.5 * m * e(up, up) - 0.5 * p * e(dn, dn)
    theta2 = s2 * e(up, dn) - 0.5 * m * e(up, up) + 0.5 * p * e(dn, dn)
    theta3 = s2 * e(dn, up) + 0.5 * p * e(up, up) - 0.5 * m * e(dn, dn)
    theta4 = s2 * e(dn, up) - 0.5 * p * e(up, up) + 0.5 * m * e(dn, dn)
    return [theta1, theta2, theta3, theta4]


def _king_eigenkets():
    up = np.array([[1.0], [0.0]], dtype=complex)
    dn = np.array([[0.0], [1.0]], dtype=complex)
    s2 = 1 / np.sqrt(2)
    return {
        "x": {1: s2 * (up + dn), -1: s2 * (up - dn)},
        "y": {1: s2 * (up + 1j * dn), -1: s2 * (up - 1j * dn)},
        "z": {1: up, -1: dn},
    }


def mean_king(rng=None) -> ProtocolReport:
    """Retrodict the king's spin outcome from a singlet and a clever basis.

    Rebuilds the 4 x 6 overlap table, simulates all six measurement
    settings with Lüders collapses, and applies the table-based decoding
    rule, which succeeds with certainty.
    """
    thetas = _mean_king_basis()
    eig = _king_eigenkets()
    settings = [(b, o) for b in ("x", "y", "z") for o in (1, -1)]
    # Conditional post-measurement states of (Alice kept (x) returned) system.
    table = np.zeros((4, 6))
    records = []
    for col, (b, o) in enumerate(settings):
        phi = tensor(eig[b][-o], eig[b][o])  # king outcome o collapses the singlet
        for k, theta in enumerate(thetas):
            table[k, col] = abs(inner(theta, phi)) ** 2
        outcomes = [k for k in range(4) if table[k, col] > 1e-12]
        # Decoding: told b, outcome k points to the unique compatible result.
        correct = True
        for k in outcomes:
            other = -o
            other_col = settings.index((b, other))
            if table[k, other_col] > 1e-12:
                correct = False
        records.append(
            {
                "setting": f"{b}{'+' if o == 1 else '-'}",
                "alice_outcomes": outcomes,
                "guess_correct": correct,
            }
        )
    summary = {
        "table": table.tolist(),
        "success_probability": float(all(r["guess_correct"] for r in records)),
    }
    return ProtocolReport("mean_king", len(settings), tuple(records), summary, _seed_repr(rng))


# ---------------------------------------------------------------------------
# Programmable processors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Processor:
    """Fixed unitary coupling with a program register: <K, G>."""

    system_dim: int
    program_dim: int
    unitary: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.system_dim * self.program_dim
        object.__setattr__(self, "unitary",
                           _frozen_copy(self.unitary, "processor unitary", shape=(n, n)))

    def apply(self, rho, program_ket: np.ndarray) -> np.ndarray:
        from .channels import dilation_apply

        return dilation_apply(self.program_dim, self.unitary, asarray(program_ket), rho)

    def kraus_for_program(self, program_ket: np.ndarray) -> list[np.ndarray]:
        """Kraus operators A_j = (I (x) <j|) G (I (x) |Xi>) of the programmed channel."""
        return list(_probe_kraus(self.unitary, self.system_dim, asarray(program_ket)))


def processor_pair(ch1: KrausChannel, ch2: KrausChannel):
    """Direct-sum processor realizing two channels from orthogonal programs.

    Returns (processor, program_ket_1, program_ket_2).
    """
    from .channels import stinespring

    d = ch1.in_dim
    if ch2.in_dim != d or ch1.out_dim != d or ch2.out_dim != d:
        raise ValueError("both channels must share the system dimension")
    n1, u1, _ = stinespring(ch1)
    n2, u2, _ = stinespring(ch2)
    k = n1 + n2
    g = np.zeros((d, k, d, k), dtype=complex)  # G[(a, e), (b, f)], program index e inner
    g[:, :n1, :, :n1] = u1.reshape(d, n1, d, n1)
    g[:, n1:, :, n1:] = u2.reshape(d, n2, d, n2)
    return Processor(d, k, g.reshape(d * k, d * k)), basis_ket(k, 0), basis_ket(k, n1)


def controlled_unitary_processor(unitaries) -> Processor:
    """G = sum_j U_j (x) |j><j| over a program basis."""
    us = np.array([asarray(u) for u in unitaries])
    k, d = us.shape[:2]
    return Processor(d, k, np.einsum("jab,jm->ajbm", us, np.eye(k)).reshape(d * k, d * k))


def processor_identity_check(kraus1, kraus2):
    """(sum_j A_j^dag B_j, extracted scalar) for aligned Kraus lists.

    For channels realized on one processor with pure programs the sum
    equals <Xi_1|Xi_2> I.  Unpaired operators of the longer list pair with
    zero and add nothing.
    """
    n = min(len(kraus1), len(kraus2))
    a, b = asarray(kraus1)[:n], asarray(kraus2)[:n]
    total = (a.conj().transpose(0, 2, 1) @ b).sum(axis=0)
    return total, complex(np.trace(total) / len(total))


def phase_damping_processor(axis="z") -> tuple[Processor, np.ndarray, np.ndarray]:
    """Two-dimensional program space realizing every phase damping channel."""
    from .channels import make

    u = make("phase_damping", eta=0.0, axis=axis).kraus_ops[0]
    proc = controlled_unitary_processor([np.eye(2, dtype=complex), u])
    return proc, basis_ket(2, 0), basis_ket(2, 1)


def probabilistic_processor(d: int, target_u, rng=0, n_inputs: int = 3) -> ProtocolReport:
    """Probabilistic universal programming of a target unitary.

    A controlled-U processor over the shift-multiply basis implements any
    unitary with success probability exactly 1/d^2; conditional outputs
    match U rho U^dag with fidelity 1.
    """
    from .discrimination import fidelity

    target_u = asarray(target_u)
    if target_u.shape != (d, d) or not is_unitary(target_u):
        raise ValueError("processor target must be a d x d unitary")
    if n_inputs < 0:
        raise ValueError("n_inputs must be non-negative")
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    us = _shift_multiply(d).unitaries
    proc = controlled_unitary_processor(us)
    phi = np.full(d * d, 1.0 / d, dtype=complex)
    amps = np.trace(us.conj().transpose(0, 2, 1) @ target_u, axis1=1, axis2=2) / d
    # Reading the program register out as phi leaves sum_j conj(phi_j) A_j.
    post = np.einsum("j,jab->ab", phi.conj(), _probe_kraus(proc.unitary, d, amps))
    kets = np.array([random_ket(d, rng) for _ in range(n_inputs)], dtype=complex).reshape(-1, d, 1)
    rhos = kets @ kets.conj().transpose(0, 2, 1)
    branches = post @ rhos @ dag(post)
    probs = np.trace(branches, axis1=1, axis2=2).real
    fids = fidelity(branches / probs[:, None, None], target_u @ rhos @ dag(target_u))
    records = [{"p_success": p, "fidelity": f} for p, f in zip(probs.tolist(), fids.tolist())]
    summary = {
        "p_success": records[0]["p_success"] if records else 1 / d**2,
        "amplitude_norm": float(np.linalg.norm(amps) ** 2),
        "min_fidelity": min(r["fidelity"] for r in records) if records else 1.0,
    }
    return ProtocolReport("probabilistic_processor", n_inputs, tuple(records), summary, seed)
