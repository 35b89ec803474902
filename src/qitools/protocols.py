"""Executable protocol simulations exercising the toolkit end to end."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (ATOL, _frozen_copy, _is_integer, _probe_kraus, _require_size,
                     _require_unit_interval, asarray, basis_ket, dag, is_unitary, outer,
                     partial_trace, tensor)
from .observables import outcome_distribution, stern_gerlach
from .rand import random_ket, random_kets, rng_from
from .states import _AXES, State, _operator_stack, maximally_entangled_ket

if TYPE_CHECKING:  # channels loads only when a function below needs it
    from .channels import ChoiMatrix, KrausChannel


def _seed_repr(rng_arg) -> object:
    """JSON-friendly record of the randomness source."""
    if isinstance(rng_arg, np.random.Generator):
        return "external-generator"
    return rng_arg


@dataclass(frozen=True)
class ProtocolReport:
    """Simulation record: per-round data plus summary statistics and the seed.

    ``records`` is a tuple.  BB84, B92 and private-quantum-channel rounds
    share their records: each is one of a few read-only dicts, built once
    per process, so ``dict(record)`` gives a mutable copy.  The records of
    every other protocol are fresh dicts.
    """

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
        _require_size(d, "dimension", 1)
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

    rho = State(rho_in).matrix
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


def teleport_channel(d: int) -> ChoiMatrix:
    """The composed teleportation map (measure, correct, average): identity.

    Outcome rs contributes the Kraus operator U_rs (<beta_rs| (x) I)(I (x) |psi+>).
    """
    from .channels import KrausChannel, to_choi

    return to_choi(KrausChannel(_teleport_kraus(d)))


@lru_cache(maxsize=16)
def _teleport_kraus(d: int) -> np.ndarray:
    """Read-only stack of U_rs (<beta_rs| (x) I)(I (x) |psi+>) over the outcomes
    rs, in the order of the shift-multiply ``keys``.

    Alice's input and half of psi+ are measured in the Bell basis, and Bob
    corrects his half with U_rs: the map from Alice's input to Bob's output.
    """
    basis = _shift_multiply(d)
    bell = basis.bell_kets.reshape(-1, d, d)  # beta[r, (a, a')]
    share = maximally_entangled_ket(d).reshape(d, d)  # psi+[(a', b)]
    # (<beta| (x) I)(I (x) |psi+>)[b, a] = sum_a' conj(beta[a, a']) psi+[a', b]
    measured = np.einsum("rxy,yb->rbx", bell.conj(), share)
    return _frozen_copy(basis.unitaries @ measured, "teleport Kraus operator")


def superdense(message: int, rng=0) -> ProtocolReport:
    """Send two classical bits through one qubit and a shared Bell pair."""
    if not _is_integer(message) or message not in range(4):
        raise ValueError("message must encode two bits (0..3)")
    # (P (x) I) psi+ = vec(P) / sqrt(2) for each Pauli P, as in ``ShiftMultiplyBasis``, so
    # |<beta_m|beta_k>|^2 = |tr(P_m^dag P_k)|^2 / 4: sums of 0, +-1, +-i, exactly one-hot.
    paulis = _operator_stack(2)
    encoded = paulis[message].reshape(4, 1) * maximally_entangled_ket(2)[0]
    probs = (np.abs(np.einsum("ij,kij->k", paulis[message].conj(), paulis)) ** 2 / 4).tolist()
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

# A BB84, B92 or private-quantum-channel round's record is one of a few
# templates, built once per process and shared by every report: a round holds
# a reference, not a copy.  The templates are read-only dicts in a read-only
# object array, so no caller can change another's rounds, and a report
# gathers its rounds' references in one indexing call.

class _SharedRecord(dict):
    """A read-only dict shared between rounds; ``dict(record)`` is a mutable copy."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("this record is shared between rounds and read-only; "
                        "use dict(record) for a mutable copy")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _SharedRecord, (dict(self),)


@lru_cache(maxsize=None)
def _bb84_tables() -> tuple[np.ndarray, np.ndarray]:
    """(p_one, templates): the read-only BB84 table and the 96 round records.

    p_one[bit, prepared basis, measured basis] is the probability of reading 1.
    Basis 0 is sigma_z and basis 1 is sigma_x.  Bit x is prepared as the
    projector of outcome x of the ``stern_gerlach`` observable along the
    basis axis and read as that outcome.  ``templates``, a read-only object
    array, is indexed by the mixed-radix code of (alice basis, bob basis,
    alice bit, bob bit, eve bit 0, 1 or None, released).
    """
    spins = [stern_gerlach(_AXES[axis]) for axis in "zx"]
    p_one = [[[outcome_distribution(spins[m], State(spins[b].effects[x]))[1] for m in (0, 1)]
              for b in (0, 1)] for x in (0, 1)]
    templates = tuple(
        _SharedRecord({
            "alice_basis": ab,
            "bob_basis": bb,
            "alice_bit": xa,
            "bob_bit": yb,
            "eve_bit": eb,
            "sifted": ab == bb,
            "released": rl,
        })
        for ab, bb, xa, yb, eb, rl in product((0, 1), (0, 1), (0, 1), (0, 1), (0, 1, None),
                                              (False, True))
    )
    return (_frozen_copy(p_one, "BB84 table", dtype=float),
            _frozen_copy(templates, "BB84 records", dtype=object, finite=True))


def bb84(rounds: int, eve: str = "none", rng=0, sample_fraction: float = 0.25) -> ProtocolReport:
    """BB84 key distribution, optionally with an intercept-resend attacker.

    Reports the sift rate, the error rate on a released sample of the
    sifted key, and the fraction of sifted bits the attacker holds
    correctly.
    """
    _require_size(rounds, "rounds", 1)
    if eve not in ("none", "intercept_resend"):
        raise ValueError("eve must be 'none' or 'intercept_resend'")
    _require_unit_interval(sample_fraction, "sample_fraction")
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    p_one, templates = _bb84_tables()
    a_basis, b_basis, x = rng.integers(2, size=(3, rounds))
    sent_bit, sent_basis, eve_code = x, a_basis, 2
    if eve == "intercept_resend":
        e_basis = rng.integers(2, size=rounds)
        eve_bit = (rng.random(rounds) < p_one[x, a_basis, e_basis]).astype(int)
        sent_bit, sent_basis, eve_code = eve_bit, e_basis, eve_bit
    y = (rng.random(rounds) < p_one[sent_bit, sent_basis, b_basis]).astype(int)
    sifted = a_basis == b_basis
    released = sifted & (rng.random(rounds) < sample_fraction)
    # The index of each round's template; eve_code 2 stands for None.
    codes = ((((a_basis * 2 + b_basis) * 2 + x) * 2 + y) * 3 + eve_code) * 2 + released
    records = tuple(templates[codes].tolist())
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
def _b92_tables(overlap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, templates, bob_bits) of the unambiguous B92 measurement at ``overlap``.

    cdf[bit], read-only, is the cumulative outcome distribution of the state
    Alice sends.  ``templates``, a read-only object array, holds the record
    of Alice's bit x and the measurement's k-th outcome at entry
    x * cdf.shape[1] + k, and the read-only ``bob_bits`` Bob's bit of each,
    -1 where inconclusive.
    """
    from .discrimination import unambiguous_two_pure

    theta = np.arccos(overlap)
    psi0 = np.array([[np.cos(theta / 2)], [np.sin(theta / 2)]], dtype=complex)
    psi1 = np.array([[np.cos(theta / 2)], [-np.sin(theta / 2)]], dtype=complex)
    povm = unambiguous_two_pure(psi0, psi1).povm
    cdf = np.cumsum([outcome_distribution(povm, State.from_ket(k)) for k in (psi0, psi1)], axis=1)
    cdf /= cdf[:, -1:]  # close the last bin at 1, so every u in [0, 1) lands in range
    templates = tuple(
        _SharedRecord({"alice_bit": xa, "outcome": o, "bob_bit": None if o == "?" else int(o) - 1})
        for xa in (0, 1)
        for o in povm.outcomes
    )
    bob_bits = [-1 if r["bob_bit"] is None else r["bob_bit"] for r in templates]
    return (_frozen_copy(cdf, "B92 table", dtype=float),
            _frozen_copy(templates, "B92 records", dtype=object, finite=True),
            _frozen_copy(bob_bits, "B92 bit table", dtype=int))


def b92(rounds: int, overlap: float, rng=0) -> ProtocolReport:
    """B92 key distribution via optimal unambiguous discrimination.

    Conclusive rounds are error-free and occur at asymptotic rate
    1 - overlap.
    """
    _require_size(rounds, "rounds", 1)
    if not 0 <= overlap < 1:
        raise ValueError("overlap must lie in [0, 1)")
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    cdf, templates, bob_bits = _b92_tables(float(overlap))
    x = rng.integers(2, size=rounds)
    idx = (rng.random(rounds)[:, None] >= cdf[x]).sum(axis=1)
    codes = x * cdf.shape[1] + idx
    bob = bob_bits[codes]
    conclusive = bob >= 0
    records = tuple(templates[codes].tolist())
    summary = {
        "conclusive_rate": int(conclusive.sum()) / rounds,
        "conclusive_errors": int((conclusive & (bob != x)).sum()),
        "expected_rate": 1 - overlap,
    }
    return ProtocolReport("b92", rounds, records, summary, seed)


# ---------------------------------------------------------------------------
# Private quantum channel
# ---------------------------------------------------------------------------

_PQC_BATCH = 1024  # messages decoded per chunk


def private_quantum_channel(d: int, n_messages: int, rng=0) -> ProtocolReport:
    """One-time-pad encryption of quantum states with shift-multiply keys.

    Bob decodes exactly with the shared key; without the key the average
    channel is the contraction to the total mixture, so the ciphertext
    carries no information.  The key costs 2 log2(d) bits per message.
    Each message's record is the shared ``{"key": (r, s)}`` of its key.
    ``keyless_choi_deviation`` is the largest entry of the difference of
    the two Choi matrices, reported as 0.0 when it is at or below
    ``linalg.ATOL``, where only rounding noise remains.
    """
    _require_size(n_messages, "n_messages", 0)
    seed = _seed_repr(rng)
    rng = rng_from(rng)
    basis = _shift_multiply(d)
    # The draw order, all keys and then the messages, fixes the seeded stream;
    # the kets of consecutive chunks are consecutive rows of one draw.
    picks = rng.integers(len(basis.keys), size=n_messages)
    fidelities = np.empty(n_messages)
    # Chunked, so the kets and gathered key unitaries take O(_PQC_BATCH d^2) memory, not O(n d^2).
    for lo in range(0, n_messages, _PQC_BATCH):
        u = basis.unitaries[picks[lo:lo + _PQC_BATCH]]
        (psi,) = random_kets([d], len(u), rng)
        cipher = u @ psi[:, :, None]  # c = U psi
        decoded = u.conj().transpose(0, 2, 1) @ cipher  # phi = U^dag c
        # F(phi phi^dag, psi psi^dag) = |<psi|phi>|, per message ket.
        fidelities[lo:lo + _PQC_BATCH] = np.abs((psi.conj() * decoded[:, :, 0]).sum(axis=1))
    records = tuple(_pqc_templates(d)[picks].tolist())
    summary = {
        "keyless_choi_deviation": _pqc_keyless_gap(d),
        "min_decode_fidelity": float(fidelities.min()) if n_messages else 1.0,
        "key_bits_total": 2 * n_messages * np.log2(d),
    }
    return ProtocolReport("private_quantum_channel", n_messages, records, summary, seed)


@lru_cache(maxsize=16)
def _pqc_templates(d: int) -> np.ndarray:
    """The read-only object array of the d^2 records ``{"key": (r, s)}``, in the
    order of the shift-multiply ``keys``."""
    return _frozen_copy(tuple(_SharedRecord({"key": key}) for key in _shift_multiply(d).keys),
                        "private quantum channel records", dtype=object, finite=True)


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

def _mean_king_basis() -> np.ndarray:
    """The four kets theta_k, a (4, 4, 1) stack over |up up>, |up dn>, |dn up>, |dn dn>."""
    p, m, s2 = np.exp(1j * np.pi / 4) / 2, np.exp(-1j * np.pi / 4) / 2, 1 / np.sqrt(2)
    return np.array([[m, s2, 0, -p], [-m, s2, 0, p], [p, 0, s2, -m], [-p, 0, s2, m]])[..., None]


def mean_king(rng=None) -> ProtocolReport:
    """Retrodict the king's spin outcome from a singlet and a clever basis.

    Rebuilds the 4 x 6 overlap table, simulates all six measurement
    settings with Lüders collapses, and applies the table-based decoding
    rule, which succeeds with certainty.
    """
    thetas = _mean_king_basis()[..., 0]  # row k holds theta_k
    settings = [(b, o) for b in _AXES for o in (1, -1)]
    spins = {b: stern_gerlach(direction) for b, direction in _AXES.items()}
    # King outcome o collapses the singlet to (Alice kept (x) returned) = |-o>|o>.
    collapsed = np.array([tensor(spins[b].effect(-o), spins[b].effect(o)) for b, o in settings])
    table = np.einsum("ki,cij,kj->kc", thetas.conj(), collapsed, thetas).real
    records = []
    for col, (b, o) in enumerate(settings):
        outcomes = [k for k in range(4) if table[k, col] > 1e-12]
        # Decoding: told b, outcome k points to the unique compatible result.
        other_col = settings.index((b, -o))
        records.append(
            {
                "setting": f"{b}{'+' if o == 1 else '-'}",
                "alice_outcomes": outcomes,
                "guess_correct": all(table[k, other_col] <= 1e-12 for k in outcomes),
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
        _require_size(self.system_dim, "dimension", 1)
        _require_size(self.program_dim, "dimension", 1)
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
    _require_size(n_inputs, "n_inputs", 0)
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
