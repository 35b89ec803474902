"""Tests of the benchmark itself: closed-form references, the span recorder,
the traced CLI child, the output checks and the missing-program exit.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from qitools import linalg, states  # noqa: E402


def haar(rng, d):
    return workloads.haar_unitary(rng, d)


def pure_trace_distance(u, kets):
    """(1/2)||psi psi^dag - U psi psi^dag U^dag||_1 for a batch of kets, via eigenvalues."""
    rho = np.einsum("ni,nj->nij", kets, kets.conj())
    out = u @ rho @ u.conj().T
    return np.abs(np.linalg.eigvalsh(rho - out)).sum(axis=1) / 2


@pytest.mark.parametrize("d", [2, 3])
def test_sup_distance_reference_matches_brute_force(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        spread = rng.uniform(np.pi / 3, 2 * np.pi / 3)
        phases = np.concatenate([[0.0, spread], rng.uniform(0, spread, size=d - 2)])
        w = haar(rng, d)
        u = (w * np.exp(1j * phases)) @ w.conj().T
        exact = workloads.sup_distance_exact(spread)
        kets = rng.standard_normal((20000, d)) + 1j * rng.standard_normal((20000, d))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        values = pure_trace_distance(u, kets)
        assert values.max() <= exact + 1e-12
        best_ket, best = kets[values.argmax()], values.max()
        step = 0.1
        for _ in range(3000):
            cand = best_ket + step * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            cand /= np.linalg.norm(cand)
            val = pure_trace_distance(u, cand[None, :])[0]
            if val > best:
                best_ket, best = cand, val
            else:
                step = max(step * 0.995, 1e-6)
        assert best <= exact + 1e-12
        assert best >= exact - 1e-6


def werner_matrix(mu):
    d = 3
    swap = np.zeros((d * d, d * d))
    for j in range(d):
        for k in range(d):
            swap[j * d + k, k * d + j] = 1
    eye = np.eye(d * d)
    return mu * (eye + swap) / 2 / 6 + (1 - mu) * (eye - swap) / 2 / 3


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
def test_werner_mef_reference_matches_brute_force(mu):
    """f(U) = vec(U)^dag rho vec(U) / d, maximized by polar see-saw and by sampling."""
    rho = werner_matrix(mu)
    d = 3
    rng = np.random.default_rng(7)

    def f(u):
        v = u.reshape(-1)
        return float(np.real(v.conj() @ rho @ v)) / d

    exact = workloads.werner_mef_exact(mu)
    samples = [f(haar(rng, d)) for _ in range(2000)]
    assert max(samples) <= exact + 1e-12
    best = -1.0
    for _ in range(20):
        u = haar(rng, d)
        for _ in range(300):
            x, _, yh = np.linalg.svd((rho @ u.reshape(-1)).reshape(d, d))
            u = x @ yh
        best = max(best, f(u))
    assert abs(best - exact) <= 1e-9


def test_chsh_product_minimum_matches_brute_force():
    rng = np.random.default_rng(3)
    a, a2, b, b2 = workloads.CHSH_SETTINGS @ workloads.random_rotation(rng).T
    paulis = [np.array(p, dtype=complex) for p in
              ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    spin = lambda n: sum(c * p for c, p in zip(n, paulis))
    w = 2 * np.eye(4) + np.kron(spin(a), spin(b) + spin(b2)) + np.kron(spin(a2), spin(b) - spin(b2))
    kets = rng.standard_normal((4000, 2, 2)) + 1j * rng.standard_normal((4000, 2, 2))
    kets /= np.linalg.norm(kets, axis=2, keepdims=True)
    prods = np.einsum("ni,nj->nij", kets[:, 0], kets[:, 1]).reshape(-1, 4)
    values = np.real(np.einsum("ni,ij,nj->n", prods.conj(), w, prods))
    assert values.min() >= workloads.CHSH_PRODUCT_MIN - 1e-12
    assert values.min() <= workloads.CHSH_PRODUCT_MIN + 1e-2


def patchable_attributes() -> dict:
    snap = {}
    for mod in spans._qitools_modules():
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
    for mod in spans._qitools_modules():
        for obj in vars(mod).values():
            if spans._is_public_class(obj):
                snap[(obj.__qualname__, "__post_init__")] = vars(obj)["__post_init__"]
    for name in spans.NUMPY_LINALG:
        snap[("numpy.linalg", name)] = getattr(np.linalg, name)
    return snap


def test_span_recorder_patches_shared_references_and_restores_them():
    before = patchable_attributes()
    original_eigh = linalg.eigh
    recorder = spans.SpanRecorder()
    with recorder:
        assert linalg.eigh is not original_eigh
        assert states.eigh is linalg.eigh
        assert np.linalg.eigvalsh is not before[("numpy.linalg", "eigvalsh")]
        states.State(np.eye(2) / 2)
        with pytest.raises(ValueError):
            states.State(np.diag([1.5, -0.5]))
        during = patchable_attributes()
    after = patchable_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, obj in after.items() if obj is not before[key]]
    assert not changed
    assert sum(during[key] is not before[key] for key in before) > 50

    arrays = recorder.arrays()
    names = [recorder.names[i] for i in arrays["name"]]
    assert names[0] == "states.State.__post_init__"
    assert "linalg.is_hermitian" in names and "numpy_linalg.eigvalsh" in names
    assert arrays["parent"][0] == -1 and (arrays["parent"][1:] >= 0).any()
    summary = spans.summarize_recorder(recorder)
    assert summary["layers"]["states"]["calls"] == 2
    assert summary["layers"]["states"]["failed"] == 1
    total = sum(s["self_s"] for s in summary["layers"].values())
    roots = arrays["parent"] == -1
    wall = float((arrays["end"] - arrays["start"])[roots].sum())
    assert total == pytest.approx(wall, rel=1e-9)


def test_traced_counts_repeat_exactly():
    def counts():
        wl = workloads.ChannelAlgebra(5, Path("unused"))
        calls = wl.cycle(0)
        recorder = spans.SpanRecorder()
        with recorder:
            for call in calls:
                call.check(call.fn())
        summary = spans.summarize_recorder(recorder)
        return {layer: s["calls"] for layer, s in summary["layers"].items()}

    assert counts() == counts()


def cli_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")


@pytest.mark.parametrize("argv", [
    ["--seed", "7", "demo", "teleport", "--d", "3"],
    ["werner", "--d", "3", "--mu", "0.3"],
    ["--format", "csv", "qubit-channel", "--lambda", "-1,-1,-1", "--t", "0,0,0"],
])
def test_traced_cli_stdout_is_byte_identical(tmp_path, argv):
    env = cli_env()
    plain = subprocess.run([sys.executable, "-m", "qitools.cli", *argv],
                           capture_output=True, env=env, timeout=60, check=False)
    span_file = tmp_path / "spans.npz"
    traced = subprocess.run([sys.executable, str(workloads.CLI_CHILD), str(span_file), *argv],
                            capture_output=True, env=env, timeout=60, check=False)
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    summary, extra = spans.summarize_file(span_file)
    assert summary["layers"]["cli"]["calls"] >= 1
    assert summary["inclusive_s"]["cli.emit"] > 0
    assert extra["import_s"] > 0


@pytest.mark.parametrize("name", ["protocols-mc", "channel-algebra", "optimizers", "cli-batch"])
def test_first_cycle_passes_its_checks(tmp_path, name):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    failures = []
    for call in wl.cycle(0):
        message = call.check(call.fn())
        if message:
            failures.append(message)
    assert not failures


def test_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.Optimizers(3, tmp_path)
    sup, mef = wl.cycle(0)[:2]
    value, ket = sup.fn()
    assert sup.check((value, ket)) is None
    assert sup.check((value - 2e-3, ket)) is not None
    assert mef.check(mef.fn() + 1e-5) is not None
    cli = workloads.CliBatch(3, tmp_path)
    nan_call = cli.cycle(0)[-1]
    bad = workloads.CliResult(0, b"{}", b"", 1, None)
    assert nan_call.check(bad) is not None


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
