"""The four benchmark workloads: inputs, calls and output checks.

Each workload is a closed loop with one client.  ``cycle(i)`` draws fresh
inputs for cycle ``i`` from the workload seed with the benchmark's own
generators (never ``qitools.rand``, whose streams may change) and returns
the list of calls.  Every call has a check that depends only on exact
identities, closed-form values or 5-sigma statistical windows, never on
the library's seeded draws.  A check returns ``None`` or a failure message.

numpy.linalg functions are imported by name so that the span recorder,
which patches the ``numpy.linalg`` module, never counts the benchmark's own
reference computations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.linalg import det, eigh, eigvalsh, qr

from qitools import channels, discrimination, entanglement, instruments, linalg, protocols
from qitools.states import State
from spans import merge, summarize_file

BENCH_DIR = Path(__file__).resolve().parent
CLI_CHILD = BENCH_DIR / "cli_child.py"
CLI_TIMEOUT_S = 60.0
SIGMAS = 5.0


@dataclass
class Call:
    """One timed library or CLI call and the check applied to its output."""

    name: str
    fn: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    """A closed loop over ``cycle(i)``; subclasses define the calls."""

    name = ""
    tag = 0
    in_process = True
    # Expected seconds per untraced cycle; fixes the traced run's cycle count.
    nominal_cycle_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, i: int, traced: bool = False) -> list[Call]:
        raise NotImplementedError

    def extra_calls(self) -> list[Call]:
        """Checked calls made once per run, outside the latency statistics."""
        return []

    def layer_extras(self, samples, scale: float) -> dict:
        """Workload-specific per-layer metrics from the untraced samples of a traced run."""
        return {}


# ---------------------------------------------------------------------------
# Benchmark-owned random inputs and reference computations
# ---------------------------------------------------------------------------

def cycle_rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i])


def isometry(rng, rows: int, cols: int) -> np.ndarray:
    """Haar-random isometry (QR of a Ginibre matrix with the phase fix)."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag)).conj()


def haar_unitary(rng, d: int) -> np.ndarray:
    return isometry(rng, d, d)


def random_density(rng, d: int) -> np.ndarray:
    """Full-rank state from the Hilbert-Schmidt (Ginibre) ensemble."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_kraus(rng, d: int, rank: int) -> list[np.ndarray]:
    """Kraus operators of a random CPTP map: blocks of a Haar isometry."""
    v = isometry(rng, rank * d, d)
    return [v[k * d:(k + 1) * d, :] for k in range(rank)]


def choi_ref(ops) -> np.ndarray:
    """Omega = sum_k vec(A_k) vec(A_k)^dag / d_in, row-major vec."""
    vecs = np.stack([np.asarray(a).reshape(-1) for a in ops], axis=1)
    return vecs @ vecs.conj().T / np.asarray(ops[0]).shape[1]


def apply_ref(ops, rho) -> np.ndarray:
    return sum(a @ rho @ a.conj().T for a in ops)


def psd_sqrt_ref(m: np.ndarray) -> np.ndarray:
    vals, vecs = eigh((m + m.conj().T) / 2)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity_ref(a: np.ndarray, b: np.ndarray) -> float:
    s = psd_sqrt_ref(a)
    return float(np.sqrt(np.clip(eigvalsh(s @ b @ s), 0.0, None)).sum())


def maxdiff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def sup_distance_exact(spread: float) -> float:
    """Delta_sup(U, id) for a unitary whose eigenphases span an arc < pi."""
    return math.sin(spread / 2)


def werner_mef_exact(mu: float) -> float:
    """Maximally entangled fraction of the d=3 Werner state mu P+/6 + (1-mu) P-/3."""
    return max(mu / 6, mu / 18 + 2 * (1 - mu) / 9)


def spread_unitary(rng) -> tuple[np.ndarray, float]:
    """Qutrit unitary W diag(e^{i phi}) W^dag with eigenphase spread in (pi/3, 2pi/3)."""
    spread = float(rng.uniform(np.pi / 3, 2 * np.pi / 3))
    phases = np.array([0.0, rng.uniform(0.0, spread), spread])
    rng.shuffle(phases)
    w = haar_unitary(rng, 3)
    return (w * np.exp(1j * phases)) @ w.conj().T, spread


def window(expected: float, value: float, sigma: float, label: str) -> str | None:
    if abs(value - expected) > SIGMAS * sigma + 1e-12:
        return f"{label} {value:.6g} outside {expected:.6g} +/- {SIGMAS:g} sigma ({sigma:.3g})"
    return None


class Chain(dict):
    """Outputs of earlier calls in a chain, read by the calls after them."""

    def __missing__(self, key):
        raise LookupError(f"no {key!r}: the call that makes it failed earlier in the chain")


def kept(box: dict, key: str, fn):
    """Wrap ``fn`` so that its output is also kept in ``box[key]`` for later calls."""
    def run():
        box[key] = fn()
        return box[key]
    return run


def first_failure(*messages) -> str | None:
    return next((m for m in messages if m), None)


def close(value, expected, tol: float, label: str) -> str | None:
    err = maxdiff(value, expected)
    return None if err <= tol else f"{label}: deviation {err:.3e} > {tol:g}"


# ---------------------------------------------------------------------------
# protocols-mc
# ---------------------------------------------------------------------------

def twirl_ref(x: np.ndarray, d: int) -> np.ndarray:
    swap = np.zeros((d * d, d * d))
    for j in range(d):
        for k in range(d):
            swap[j * d + k, k * d + j] = 1.0
    eye = np.eye(d * d)
    p_plus, p_minus = (eye + swap) / 2, (eye - swap) / 2
    d_plus, d_minus = d * (d + 1) / 2, d * (d - 1) / 2
    return (
        np.trace(x @ p_plus) / d_plus * p_plus + np.trace(x @ p_minus) / d_minus * p_minus
    )


class ProtocolsMC(Workload):
    """Per-round Python loops over 2x2 matrices, and one Haar QR per twirl sample."""

    name = "protocols-mc"
    tag = 1
    nominal_cycle_s = 2.3
    ROUNDS = 2000
    TWIRL_SAMPLES = 10000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.rounds: dict[str, int] = {}

    def cycle(self, i: int, traced: bool = False) -> list[Call]:
        rng = cycle_rng(self.seed, self.tag, i)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]
        x = random_density(rng, 4)
        rho3 = random_density(rng, 3)
        n = self.ROUNDS
        return [
            Call("bb84_eve", lambda: protocols.bb84(n, eve="intercept_resend", rng=seeds[0]),
                 lambda r: self._check_bb84(r, eve=True)),
            Call("bb84", lambda: protocols.bb84(n, rng=seeds[1]),
                 lambda r: self._check_bb84(r, eve=False)),
            Call("b92", lambda: protocols.b92(n, 0.5, rng=seeds[2]), self._check_b92),
            Call("twirl_monte_carlo",
                 lambda: entanglement.twirl_monte_carlo(x, 2, self.TWIRL_SAMPLES, rng=seeds[3]),
                 lambda out: self._check_twirl(out, x)),
            Call("private_quantum_channel",
                 lambda: protocols.private_quantum_channel(4, 200, rng=seeds[4]), self._check_pqc),
            Call("teleport", lambda: protocols.teleport(rho3, rng=seeds[5]), self._check_teleport),
        ]

    def _count(self, name: str, report) -> None:
        self.rounds[name] = report.rounds

    def _check_bb84(self, report, eve: bool) -> str | None:
        self._count("bb84_eve" if eve else "bb84", report)
        n = self.ROUNDS
        s = report.summary
        if report.rounds != n or len(report.records) != n:
            return "bb84: wrong number of rounds"
        sifted = sum(r["sifted"] for r in report.records)
        if any(r["sifted"] != (r["alice_basis"] == r["bob_basis"]) for r in report.records):
            return "bb84: sifted flag disagrees with the bases"
        if abs(s["sift_rate"] * n - sifted) > 1e-9:
            return "bb84: sift rate disagrees with the records"
        released = s["released_count"]
        msg = first_failure(
            window(0.5, s["sift_rate"], math.sqrt(0.25 / n), "bb84 sift rate"),
            window(0.25 * sifted, released, math.sqrt(0.1875 * sifted), "bb84 released count"),
        )
        if msg:
            return msg
        if not eve:
            if s["qber"] != 0.0 or s["eve_correct_fraction"] is not None:
                return f"bb84 without eve: qber {s['qber']} should be 0"
            return None
        return first_failure(
            window(0.25, s["qber"], math.sqrt(0.1875 / max(released, 1)), "bb84 eve qber"),
            window(0.75, s["eve_correct_fraction"], math.sqrt(0.1875 / max(sifted, 1)),
                   "bb84 eve correct fraction"),
        )

    def _check_b92(self, report) -> str | None:
        self._count("b92", report)
        n = self.ROUNDS
        s = report.summary
        if report.rounds != n or len(report.records) != n:
            return "b92: wrong number of rounds"
        if s["conclusive_errors"] != 0:
            return f"b92: {s['conclusive_errors']} conclusive errors"
        return window(0.5, s["conclusive_rate"], math.sqrt(0.25 / n), "b92 conclusive rate")

    def _check_twirl(self, out, x) -> str | None:
        exact = twirl_ref(x, 2)
        # |entry of (U(x)U) x (U(x)U)^dag|^2 summed over a row has mean twirl(x^2)_jj.
        row_var = np.real(np.diag(twirl_ref(x @ x, 2)))
        sigma = np.sqrt(np.minimum.outer(row_var, row_var) / self.TWIRL_SAMPLES)
        err = np.asarray(out) - exact
        worst = float(np.max(np.maximum(np.abs(err.real), np.abs(err.imag)) / (sigma + 1e-300)))
        if worst > SIGMAS:
            return f"twirl_monte_carlo: entry off by {worst:.2f} sigma"
        return None

    def _check_pqc(self, report) -> str | None:
        self._count("private_quantum_channel", report)
        s = report.summary
        return first_failure(
            None if len(report.records) == 200 else "pqc: wrong number of messages",
            None if s["min_decode_fidelity"] >= 1 - 1e-9 else "pqc: decoding is not exact",
            None if s["keyless_choi_deviation"] <= 1e-9 else "pqc: keyless channel not private",
            None if abs(s["key_bits_total"] - 800) < 1e-9 else "pqc: wrong key length",
        )

    def _check_teleport(self, report) -> str | None:
        self._count("teleport", report)
        s = report.summary
        return first_failure(
            None if report.rounds == 9 else "teleport: expected 9 Bell outcomes",
            close(s["probabilities"], np.full(9, 1 / 9), 1e-9, "teleport probabilities"),
            None if s["min_fidelity"] >= 1 - 1e-8 else "teleport: fidelity below 1",
        )

    def layer_extras(self, samples, scale: float) -> dict:
        """protocols.rounds_per_s over the protocol calls of ``samples``."""
        seconds = sum(dur for name, dur, _ in samples if name in self.rounds)
        count = sum(self.rounds[name] for name, _, _ in samples if name in self.rounds)
        return {"protocols.rounds_per_s": count / seconds if seconds else 0.0}


# ---------------------------------------------------------------------------
# channel-algebra
# ---------------------------------------------------------------------------

class ChannelAlgebra(Workload):
    """Representation conversions, certification and dense decompositions."""

    name = "channel-algebra"
    tag = 2
    nominal_cycle_s = 0.8
    CHAIN_DIMS = (2, 4, 8)
    CHOI_ONLY_DIM = 16
    LINALG_DIMS = (2, 4, 8, 16)


    def cycle(self, i: int, traced: bool = False) -> list[Call]:
        rng = cycle_rng(self.seed, self.tag, i)
        calls: list[Call] = []
        for d in self.CHAIN_DIMS:
            calls.extend(self._chain(rng, d))
        calls.extend(self._choi_only(rng, self.CHOI_ONLY_DIM))
        calls.extend(self._instrument(rng, 4))
        calls.extend(self._discrimination(rng, 8))
        for d in self.LINALG_DIMS:
            calls.extend(self._linalg(rng, d))
        return calls

    def _chain(self, rng, d: int) -> list[Call]:
        ops = random_kraus(rng, d, d)
        omega = choi_ref(ops)
        rho = random_density(rng, d)
        ch = channels.KrausChannel(tuple(ops))
        box = Chain()

        def check_kraus(key):
            return lambda out: close(choi_ref(out.kraus_ops), omega, 1e-9, f"{key} d={d}")

        def check_affine(aff):
            # E(I/d) = (I + t.E)/d in a basis with tr E_j E_k = d delta_jk.
            sigma = apply_ref(ops, np.eye(d) / d)
            t_norm2 = d * np.trace(sigma @ sigma).real - 1
            if aff.T.shape != (d * d - 1,) * 2 or abs(float(aff.t @ aff.t) - t_norm2) > 1e-9:
                return f"to_affine d={d}: translation part inconsistent"
            return None

        def check_stinespring(out):
            n, u, env = out
            if n != d or u.shape != (d * n, d * n) or maxdiff(u.conj().T @ u, np.eye(d * n)) > 1e-8:
                return f"stinespring d={d}: not a unitary dilation"
            return None

        return [
            Call(f"to_choi_d{d}", kept(box, "choi", lambda: channels.to_choi(ch)),
                 lambda out: close(out.matrix, omega, 1e-10, f"to_choi d={d}")),
            Call(f"certify_d{d}", lambda: channels.certify(ch),
                 lambda r: None if r["cp"] and r["tp"] and r["choi_min_eig"] >= -1e-9
                 else f"certify d={d}: {r}"),
            Call(f"from_choi_d{d}", kept(box, "kraus", lambda: channels.from_choi(box["choi"])),
                 check_kraus("from_choi")),
            Call(f"to_chi_d{d}", kept(box, "chi", lambda: channels.to_chi(ch)),
                 lambda out: None if abs(np.trace(out.matrix) - d) <= 1e-9
                 and eigvalsh((out.matrix + out.matrix.conj().T) / 2).min() >= -1e-9
                 else f"to_chi d={d}: not PSD with trace d"),
            Call(f"chi_to_kraus_d{d}", lambda: channels.chi_to_kraus(box["chi"]),
                 check_kraus("chi_to_kraus")),
            Call(f"to_affine_d{d}", kept(box, "affine", lambda: channels.to_affine(ch)), check_affine),
            Call(f"affine_to_choi_d{d}", lambda: channels.affine_to_choi(box["affine"]),
                 lambda out: close(out.matrix, omega, 1e-9, f"affine_to_choi d={d}")),
            Call(f"stinespring_d{d}", kept(box, "dilation", lambda: channels.stinespring(ch)),
                 check_stinespring),
            Call(f"dilation_apply_d{d}",
                 lambda: channels.dilation_apply(*box["dilation"], rho),
                 lambda out: close(out, apply_ref(ops, rho), 1e-9, f"dilation_apply d={d}")),
            Call(f"process_fidelity_d{d}",
                 lambda: channels.process_fidelity(ch, box["kraus"]),
                 lambda f: None if abs(f - 1) <= 1e-6 else f"process_fidelity d={d}: {f}"),
        ]

    def _choi_only(self, rng, d: int) -> list[Call]:
        ops = random_kraus(rng, d, d)
        omega = choi_ref(ops)
        ch = channels.KrausChannel(tuple(ops))
        box = Chain()
        return [
            Call(f"to_choi_d{d}", kept(box, "choi", lambda: channels.to_choi(ch)),
                 lambda out: close(out.matrix, omega, 1e-10, f"to_choi d={d}")),
            Call(f"certify_d{d}", lambda: channels.certify(box["choi"]),
                 lambda r: None if r["cp"] and r["tp"] else f"certify d={d}: {r}"),
            Call(f"from_choi_d{d}", lambda: channels.from_choi(box["choi"]),
                 lambda out: close(choi_ref(out.kraus_ops), omega, 1e-9, f"from_choi d={d}")),
        ]

    def _instrument(self, rng, d: int) -> list[Call]:
        blocks = np.split(isometry(rng, 3 * d, d), 3)
        effects = [b.conj().T @ b for b in blocks]
        roots = [psd_sqrt_ref(e) for e in effects]
        ins = instruments.DiscreteInstrument(("a", "b", "c"), tuple((r,) for r in roots))
        box = Chain()

        def check_round_trip(out):
            for x, root in zip(("a", "b", "c"), roots):
                err = close(choi_ref(out.operation(x).kraus_ops), choi_ref([root]), 1e-7,
                            f"instrument round trip outcome {x}")
                if err:
                    return err
            return None

        return [
            Call("instrument_to_normal_memo",
                 kept(box, "memo", lambda: instruments.instrument_to_normal_memo(ins)),
                 lambda m: None if m.system_dim == d else "normal memo: wrong system dimension"),
            Call("memo_to_instrument", lambda: instruments.memo_to_instrument(box["memo"]),
                 check_round_trip),
        ]

    def _discrimination(self, rng, d: int) -> list[Call]:
        rho1, rho2 = random_density(rng, d), random_density(rng, d)
        p_exact = 0.5 * (1 + np.abs(eigvalsh((rho1 - rho2) / 2)).sum())
        f_exact = fidelity_ref(rho1, rho2)
        s1, s2 = State(rho1), State(rho2)
        return [
            Call("helstrom_d8", lambda: discrimination.helstrom(s1, s2),
                 lambda r: None if abs(r.p_success - p_exact) <= 1e-9
                 and abs(r.p_success + r.p_error - 1) <= 1e-9
                 else f"helstrom: p_success {r.p_success} != {p_exact}"),
            Call("fidelity_d8", lambda: discrimination.fidelity(s1, s2),
                 lambda f: None if abs(f - f_exact) <= 1e-8 else f"fidelity: {f} != {f_exact}"),
        ]

    def _linalg(self, rng, d: int) -> list[Call]:
        n = d * d
        herm = random_density(rng, n)
        gen = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scale = float(np.abs(gen).max())
        sv_sum = float(np.sqrt(np.clip(eigvalsh(gen.conj().T @ gen), 0.0, None)).sum())
        blocks = sum(herm[j * d:(j + 1) * d, j * d:(j + 1) * d] for j in range(d))

        def check_eigh(out):
            vals, vecs = out
            if np.any(np.diff(vals) > 0):
                return f"eigh n={n}: eigenvalues not descending"
            return close((vecs * vals) @ vecs.conj().T, herm, 1e-12, f"eigh n={n}")

        def check_polar(out):
            v, abs_t = out
            return first_failure(
                close(v.conj().T @ v, np.eye(n), 1e-9, f"polar n={n}: unitarity"),
                close(v @ abs_t, gen, 1e-9 * scale * n, f"polar n={n}: product"),
            )

        return [
            Call(f"eigh_n{n}", lambda: linalg.eigh(herm), check_eigh),
            Call(f"psd_sqrt_n{n}", lambda: linalg.psd_sqrt(herm),
                 lambda s: close(s @ s, herm, 1e-12, f"psd_sqrt n={n}")),
            Call(f"polar_n{n}", lambda: linalg.polar(gen), check_polar),
            Call(f"trace_norm_n{n}", lambda: linalg.trace_norm(gen),
                 lambda t: None if abs(t - sv_sum) <= 1e-9 * sv_sum else f"trace_norm n={n}"),
            Call(f"partial_trace_n{n}", lambda: linalg.partial_trace(herm, d, d),
                 lambda out: close(out, blocks, 1e-13, f"partial_trace n={n}")),
        ]



# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

S2 = 1 / math.sqrt(2)
CHSH_SETTINGS = np.array([(1, 0, 0), (0, 1, 0), (S2, S2, 0), (S2, -S2, 0)], dtype=float)
# For these settings B_CHSH = sqrt(2) (X(x)X + Y(x)Y), so the minimum of
# <2 I + B> over product states is 2 - sqrt(2); a common rotation of all four
# directions is a local unitary and leaves it unchanged.
CHSH_PRODUCT_MIN = 2 - math.sqrt(2)


def random_rotation(rng) -> np.ndarray:
    q, r = qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if det(q) > 0 else -q


class Optimizers(Workload):
    """Seeded searches whose values have closed forms or certified bounds."""

    name = "optimizers"
    tag = 3
    nominal_cycle_s = 0.6

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.sup_gaps: list[float] = []
        self.mef_gaps: list[float] = []

    def extra_calls(self) -> list[Call]:
        """max_entangled_fraction on a random full-rank 3x3 state, once per run.

        Its cost is heavy-tailed across inputs (0.2 s to 8 s), so it runs once
        per run as a checked call outside the latency statistics.
        """
        rng = cycle_rng(self.seed, self.tag + 100, 0)
        rho = random_density(rng, 9)
        state = entanglement.BipartiteState(State(rho), 3, 3)
        psi = np.zeros(9)
        psi[[0, 4, 8]] = 1 / math.sqrt(3)
        lower = float(np.real(psi @ rho @ psi))
        upper = float(eigvalsh(rho).max())
        call_seed = int(rng.integers(0, 2**31))

        def check(value):
            if not lower - 1e-9 <= value <= upper + 1e-9:
                return f"mef random state: {value} outside [{lower}, {upper}]"
            return None

        return [Call("mef_random_state",
                     lambda: entanglement.max_entangled_fraction(state, rng=call_seed, restarts=2),
                     check)]

    def cycle(self, i: int, traced: bool = False) -> list[Call]:
        rng = cycle_rng(self.seed, self.tag, i)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
        u, spread = spread_unitary(rng)
        target = channels.KrausChannel((u,))
        ident = channels.KrausChannel((np.eye(3, dtype=complex),))
        mu = float(rng.uniform(0.0, 1.0))
        w_state = entanglement.werner(3, mu)
        a, a2, b, b2 = (tuple(v) for v in CHSH_SETTINGS @ random_rotation(rng).T)

        def check_sup(out):
            gap = abs(out[0] - sup_distance_exact(spread))
            self.sup_gaps.append(gap)
            return None if gap <= 1e-3 else f"sup_distance: gap {gap:.3e} > 1e-3"

        def check_mef(value):
            gap = abs(value - werner_mef_exact(mu))
            self.mef_gaps.append(gap)
            return None if gap <= 1e-6 else f"mef werner mu={mu:.4f}: gap {gap:.3e} > 1e-6"

        def check_chsh(w):
            v = w.certified_min_product_value
            if v < -1e-7 or v < CHSH_PRODUCT_MIN - 1e-9:
                return f"chsh_witness: certified value {v} below {CHSH_PRODUCT_MIN}"
            return None

        return [
            Call("sup_distance", lambda: channels.sup_distance(target, ident, rng=seeds[0],
                                                               restarts=8), check_sup),
            Call("mef_werner", lambda: entanglement.max_entangled_fraction(
                w_state, rng=seeds[1], restarts=8), check_mef),
            Call("upb_epsilon", lambda: entanglement.upb_epsilon(rng=seeds[2], restarts=50),
                 lambda e: None if e > 0 else f"upb_epsilon: {e} is not positive"),
            Call("chsh_witness", lambda: entanglement.chsh_witness(a, a2, b, b2, rng=seeds[3]),
                 check_chsh),
        ]

    def layer_extras(self, samples, scale: float) -> dict:
        return {
            "channels.sup_gap_max": max(self.sup_gaps, default=0.0),
            "entanglement.mef_gap_max": max(self.mef_gaps, default=0.0),
        }


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

def matrix_entries(m) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def run_child(cmd: list[str], env: dict, out_path: Path, err_path: Path):
    """Run a child to completion; returns (exit code, stdout, stderr, max RSS in KiB).

    The child is reaped with ``os.wait4`` so that its own peak resident set
    is known; a watchdog kills it after CLI_TIMEOUT_S.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int
    spans_file: Path | None


def qubit_map_choi(lmbda, t) -> np.ndarray:
    """Chi-normalized Choi matrix of r -> diag(lmbda) r + t, built from Paulis."""
    paulis = [np.array(p, dtype=complex) for p in
              ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]

    def image(m):
        out = np.trace(m) / 2 * (np.eye(2) + sum(tj * p for tj, p in zip(t, paulis)))
        return out + sum(lj * np.trace(m @ p) / 2 * p for lj, p in zip(lmbda, paulis))

    phi = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            e = np.zeros((2, 2))
            e[j, k] = 1.0
            phi += np.kron(image(e), e)
    return phi


class CliBatch(Workload):
    """Fresh ``python -m qitools.cli`` processes over a fixed command list."""

    name = "cli-batch"
    tag = 4
    in_process = False
    nominal_cycle_s = 3.5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.src = BENCH_DIR.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.digests: dict[str, str] = {}
        self.child_rss_kib: list[int] = []
        self.output_bytes: list[int] = []
        self.import_s: list[float] = []
        self.trace_total: dict = {"layers": {}, "inclusive_s": {}}
        self._prepare()

    def _write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _prepare(self) -> None:
        """Draw the run's documents and the values their reports must show."""
        rng = cycle_rng(self.seed, self.tag, 0)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.mu = round(float(rng.uniform(0.0, 1.0)), 6)
        k2 = random_kraus(rng, 2, 2)
        self.k2_doc = self._write("kraus2.json", {"kind": "kraus", "dims": [2, 2],
                                                  "operators": [matrix_entries(a) for a in k2]})
        self.k2_unital = maxdiff(sum(a @ a.conj().T for a in k2), np.eye(2)) <= 1e-9
        self.choi8 = choi_ref(random_kraus(rng, 8, 8))
        self.choi8_doc = self._write("choi8.json", {"kind": "choi", "dims": [8, 8],
                                                    "entries": matrix_entries(self.choi8)})
        self.rho33 = random_density(rng, 9)
        self.rho33_doc = self._write("state33.json", {"kind": "state", "dims": 9,
                                                      "entries": matrix_entries(self.rho33)})
        self.rho1, self.rho2 = random_density(rng, 4), random_density(rng, 4)
        self.s1_doc = self._write("s1.json", {"kind": "state", "dims": 4,
                                              "entries": matrix_entries(self.rho1)})
        self.s2_doc = self._write("s2.json", {"kind": "state", "dims": 4,
                                              "entries": matrix_entries(self.rho2)})
        kets = [isometry(rng, 3, 1) for _ in range(2)]
        self.overlap = abs(complex((kets[0].conj().T @ kets[1])[0, 0]))
        self.k1_doc = self._write("k1.json", {"kind": "ket", "dims": 3,
                                              "entries": matrix_entries(kets[0])})
        self.k2ket_doc = self._write("k2.json", {"kind": "ket", "dims": 3,
                                                 "entries": matrix_entries(kets[1])})
        self.lmbda = [round(float(x), 6) for x in rng.uniform(-1.0, 1.0, size=3)]
        self.t = [round(float(x), 6) for x in rng.uniform(-0.3, 0.3, size=3)]
        bad = [matrix_entries(a) for a in k2]
        bad[0][1][0] = float("nan")
        self.nan_doc = self._write("nan_kraus.json", {"kind": "kraus", "dims": [2, 2],
                                                      "operators": bad})

    def commands(self) -> list[tuple[str, list[str], Callable]]:
        fmt = lambda xs: ",".join(repr(x) for x in xs)
        return [
            ("werner", ["werner", "--d", "3", "--mu", repr(self.mu)], self._check_werner),
            ("certify_kraus_d2", ["certify-channel", "--in", self.k2_doc], self._check_kraus2),
            ("certify_choi_d8", ["certify-channel", "--in", self.choi8_doc], self._check_choi8),
            ("entanglement", ["entanglement", "--in", self.rho33_doc, "--dims", "3,3",
                              "--tests", "ppt,reduction"], self._check_entanglement),
            ("discriminate_minerror", ["discriminate", "--s1", self.s1_doc, "--s2", self.s2_doc,
                                       "--mode", "minerror"], self._check_minerror),
            ("discriminate_unambiguous", ["discriminate", "--s1", self.k1_doc, "--s2",
                                          self.k2ket_doc, "--mode", "unambiguous"],
             self._check_unambiguous),
            ("qubit_channel_csv", ["--format", "csv", "qubit-channel", "--lambda",
                                   fmt(self.lmbda), "--t", fmt(self.t)], self._check_qubit_csv),
            ("demo_teleport", ["--seed", "7", "demo", "teleport", "--d", "3"],
             self._check_teleport),
            ("demo_bb84", ["--seed", "7", "demo", "bb84", "--rounds", "2000", "--eve"],
             self._check_bb84),
            ("nan_document", ["certify-channel", "--in", self.nan_doc], None),
        ]

    def cycle(self, i: int, traced: bool = False) -> list[Call]:
        calls = []
        for k, (label, argv, check) in enumerate(self.commands()):
            spans = self.workdir / f"spans-{k}.npz" if traced else None
            calls.append(Call(label, self._runner(argv, spans), self._checker(label, check)))
        return calls

    def _runner(self, argv: list[str], spans: Path | None):
        if spans is None:
            cmd = [sys.executable, "-m", "qitools.cli", *argv]
        else:
            cmd = [sys.executable, str(CLI_CHILD), str(spans), *argv]

        def run():
            code, out, err, rss = run_child(cmd, self.env, self.workdir / "stdout",
                                            self.workdir / "stderr")
            return CliResult(code, out, err, rss, spans)

        return run

    def _checker(self, label: str, check):
        def run(res: CliResult) -> str | None:
            self.child_rss_kib.append(res.maxrss_kib)
            self.output_bytes.append(len(res.stdout))
            if res.spans_file is not None:
                summary, extra = summarize_file(res.spans_file)
                merge(self.trace_total, summary)
                self.import_s.append(extra["import_s"])
            if check is None:
                if res.code != 2 or res.stdout:
                    return f"{label}: exit {res.code}, expected a validation failure (2)"
                return None
            if res.code != 0:
                return f"{label}: exit {res.code}: {res.stderr[-300:]!r}"
            digest = hashlib.sha256(res.stdout).hexdigest()
            if self.digests.setdefault(label, digest) != digest:
                return f"{label}: stdout differs from an earlier identical command"
            return check(res.stdout)

        return run

    def _check_werner(self, out: bytes):
        r = json.loads(out)
        mu = self.mu
        return first_failure(
            None if r["ppt"] == (mu >= 0.5) and r["entangled"] == (mu < 0.5)
            else f"werner mu={mu}: ppt/entangled verdicts wrong",
            None if abs(r["swap_expectation"] - (2 * mu - 1)) <= 1e-9
            else "werner: swap expectation wrong",
        )

    def _check_kraus2(self, out: bytes):
        r = json.loads(out)
        ok = r["cp"] and r["tp"] and r["trace_decreasing"] and r["unital"] == self.k2_unital
        return None if ok else f"certify kraus d=2: {r}"

    def _check_choi8(self, out: bytes):
        r = json.loads(out)
        min_eig = float(eigvalsh(self.choi8).min())
        ok = r["cp"] and r["tp"] and abs(r["choi_min_eig"] - min_eig) <= 1e-9
        return None if ok else f"certify choi d=8: {r}"

    def _check_entanglement(self, out: bytes):
        r = json.loads(out)
        pt = self.rho33.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        pt_min = float(eigvalsh(pt).min())
        m = self.rho33.reshape(3, 3, 3, 3)
        rho_a = np.einsum("ijkj->ik", m)
        rho_b = np.einsum("ijik->jk", m)
        e1 = float(eigvalsh(np.kron(np.eye(3), rho_b) - self.rho33).min())
        e2 = float(eigvalsh(np.kron(rho_a, np.eye(3)) - self.rho33).min())
        return first_failure(
            None if r["ppt"]["is_ppt"] == (pt_min >= -1e-9) else "entanglement: PPT verdict",
            close(r["ppt"]["pt_min_eig"], pt_min, 1e-9, "entanglement: PT min eigenvalue"),
            close(r["reduction"]["min_eigs"], [e1, e2], 1e-9, "entanglement: reduction"),
        )

    def _check_minerror(self, out: bytes):
        r = json.loads(out)
        p = 0.5 * (1 + np.abs(eigvalsh((self.rho1 - self.rho2) / 2)).sum())
        return close([r["p_success"], r["p_error"]], [p, 1 - p], 1e-9, "discriminate minerror")

    def _check_unambiguous(self, out: bytes):
        r = json.loads(out)
        return close(r["p_success"], 1 - self.overlap, 1e-9, "discriminate unambiguous")

    def _check_qubit_csv(self, out: bytes):
        rows = dict(line.split(",", 1) for line in out.decode().splitlines()[1:])
        min_eig = float(eigvalsh(qubit_map_choi(self.lmbda, self.t)).min())
        cp = rows.get("cp") == "True"
        if cp != (min_eig >= -1e-9) or abs(float(rows["choi_min_eig"]) - min_eig) > 1e-9:
            return f"qubit-channel csv: cp={rows.get('cp')} min_eig={rows.get('choi_min_eig')}"
        return None

    def _check_teleport(self, out: bytes):
        r = json.loads(out)
        s = r["summary"]
        return first_failure(
            close(s["probabilities"], np.full(9, 1 / 9), 1e-9, "demo teleport probabilities"),
            None if s["min_fidelity"] >= 1 - 1e-8 else "demo teleport: fidelity below 1",
        )

    def _check_bb84(self, out: bytes):
        r = json.loads(out)
        s = r["summary"]
        n = 2000
        sifted = sum(rec["sifted"] for rec in r["records"])
        released = s["released_count"]
        return first_failure(
            None if len(r["records"]) == n else "demo bb84: wrong number of records",
            window(0.5, s["sift_rate"], math.sqrt(0.25 / n), "demo bb84 sift rate"),
            window(0.25, s["qber"], math.sqrt(0.1875 / max(released, 1)), "demo bb84 qber"),
            window(0.75, s["eve_correct_fraction"], math.sqrt(0.1875 / max(sifted, 1)),
                   "demo bb84 eve correct fraction"),
        )

    def layer_extras(self, samples, scale: float) -> dict:
        """Per traced CLI call: child import time, inclusive load/emit time, stdout size."""
        calls = len(self.import_s)
        if not calls:
            return {}
        inclusive = self.trace_total["inclusive_s"]
        ms = 1e3 * scale / calls
        return {
            "cli.import_ms": sum(self.import_s) * ms,
            "cli.load_document_ms": inclusive.get("cli.load_document", 0.0) * ms,
            "cli.emit_ms": inclusive.get("cli.emit", 0.0) * ms,
            "cli.output_bytes": sum(self.output_bytes) / len(self.output_bytes),
        }


WORKLOADS = {w.name: w for w in (ProtocolsMC, ChannelAlgebra, Optimizers, CliBatch)}
