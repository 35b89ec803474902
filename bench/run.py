"""qitools benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a fixed number of cycles untraced and then the same
cycles under the span recorder, and reports the per-layer metrics plus
``trace.overhead``.  The last line of stdout is the JSON result; the lines
before it name every metric with its unit, the run environment and the
sample counts.  A full record goes to ``.bench_out/``.  See bench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads, so that a 2-core box measures
# the program and not the scheduler.  Children inherit the pins.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import REF_S, SpeedGauge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Per-layer metrics besides <layer>.calls/self_ms/failed; each workload
# reports those it measures, the rest read 0.
EXTRA_UNITS = {
    "protocols.rounds_per_s": "1/s",
    "channels.sup_gap_max": "abs_err",
    "entanglement.mef_gap_max": "abs_err",
    "cli.import_ms": "ms",
    "cli.load_document_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.output_bytes": "bytes",
}
# A traced run spends about this share of --seconds on its untraced pass.
TRACE_SHARE = 0.4

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def import_qitools():
    """Import qitools from this checkout's src/, or exit non-zero."""
    package = SRC / "qitools"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no qitools sources at {package}")
    sys.path.insert(0, str(SRC))
    import qitools

    if Path(qitools.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported qitools from {qitools.__file__}, not {package}")
    return qitools


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so that the speed gauge
    measures the CPU that the CLI children run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed: int, cpu: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
    }


def run_calls(calls, samples: list, failures: list, gauge) -> None:
    """Time each call alone, then check its output; failures are recorded, not raised.

    A sample is (name, seconds, ok, index of the speed-gauge run before it).
    """
    clock = time.perf_counter
    for call in calls:
        gauge_index = gauge.tick()
        t0 = clock()
        try:
            out = call.fn()
            error = None
        except Exception as err:  # the loop must go on: a failed call is data
            out, error = None, f"{call.name}: {type(err).__name__}: {err}"
        duration = clock() - t0
        if error is None:
            try:
                error = call.check(out)
            except Exception as err:  # a check that cannot read the output fails the call
                error = f"{call.name}: check raised {type(err).__name__}: {err}"
        samples.append((call.name, duration, error is None, gauge_index))
        if error:
            failures.append(error)


def scaled(samples, gauge) -> list[tuple[str, float, bool]]:
    """(name, seconds at reference speed, ok) for each sample."""
    return [(name, d * gauge.scale(i), ok) for name, d, ok, i in samples]


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics, so the
    estimate does not hinge on one or two samples.  That matters here: with
    whole cycles, the 90th percentile of cli-batch falls exactly on the edge
    between its slowest command and the other nine.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (np.arange(200_000) + 0.5) / 200_000
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    weights = np.bincount((grid * n).astype(int), weights=np.exp(log_pdf - log_pdf.max()),
                          minlength=n)
    return float(weights @ x / weights.sum())


def latency_metrics(durations, per_cycle) -> dict:
    """calls_per_s, call_ms_p50 and call_ms_p90 of one list of call durations."""
    rates, start = [], 0
    for count in per_cycle:
        rates.append(count / sum(durations[start:start + count]))
        start += count
    return {
        # Median over cycles: robust to bursts of contention on a shared machine.
        "calls_per_s": statistics.median(rates),
        "call_ms_p50": hd_quantile(durations, 0.5) * 1e3,
        "call_ms_p90": hd_quantile(durations, 0.9) * 1e3,
    }


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to first-call-ready in fresh interpreters: (raw, at reference speed)."""
    gauge = SpeedGauge()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, indices = [], []
    for _ in range(SETUP_REPEATS):
        indices.append(gauge.measure())
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"bench: setup probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(float(proc.stdout.split()[-1]) - spawned)
    gauge.measure()
    return raw, [t * gauge.scale(i) for t, i in zip(raw, indices)]


def measure(wl, seconds: float, seed: int) -> tuple[dict, dict]:
    """Untraced closed loop of whole cycles for about ``seconds``."""
    setup_raw, setup = setup_times(wl.name, seed)
    gauge = SpeedGauge()
    samples, extra, failures, per_cycle = [], [], [], []
    started = time.perf_counter()
    run_calls(wl.extra_calls(), extra, failures, gauge)
    while True:
        cycle_start = time.perf_counter()
        first = len(samples)
        run_calls(wl.cycle(len(per_cycle)), samples, failures, gauge)
        per_cycle.append(len(samples) - first)
        now = time.perf_counter()
        if now - started + (now - cycle_start) > seconds:
            break
    gauge.measure()
    attempted = len(samples) + len(extra)
    if wl.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max(wl.child_rss_kib)
    metrics = {"setup_s": statistics.median(setup)}
    metrics.update(latency_metrics([d for _, d, _ in scaled(samples, gauge)], per_cycle))
    metrics["success_rate"] = (attempted - len(failures)) / attempted
    metrics["peak_rss_mb"] = peak_kib / 1024
    raw = {"setup_s": statistics.median(setup_raw)}
    raw.update(latency_metrics([d for _, d, _, _ in samples], per_cycle))
    detail = {
        "setup_samples_s": setup_raw,
        "cycles": len(per_cycle),
        "latency_samples": len(samples),
        "unsampled_calls": [name for name, _, _, _ in extra],
        "wall_s": time.perf_counter() - started,
        "raw_wall_clock": raw,
        "speed_gauge": {"runs": len(gauge.times), "median_s": statistics.median(gauge.times),
                        "ref_s": REF_S},
    }
    detail["raw_samples"] = samples
    detail["gauge_times"] = gauge.times
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
            "attempted": attempted, "failures": failures,
            "samples": scaled(samples, gauge)}, detail


def trace_cycles(wl, seconds: float) -> int:
    """Fixed for a given --seconds, so counts repeat exactly for a fixed seed."""
    return max(1, int(seconds * TRACE_SHARE / wl.nominal_cycle_s))


def traced(wl, seconds: float, seed: int) -> tuple[dict, dict]:
    """Same cycles untraced, then traced; per-layer metrics per traced call."""
    from spans import LAYERS, SpanRecorder, summarize_recorder

    n = trace_cycles(wl, seconds)
    plain = [wl.cycle(i, traced=False) for i in range(n)]
    instrumented = [wl.cycle(i, traced=True) for i in range(n)]
    extra_calls = wl.extra_calls()
    plain_samples, traced_samples, extra, failures = [], [], [], []
    gauge = SpeedGauge()
    for calls in plain:
        run_calls(calls, plain_samples, failures, gauge)
    recorder = SpanRecorder()
    if wl.in_process:
        recorder.install()
    try:
        for calls in instrumented:
            run_calls(calls, traced_samples, failures, gauge)
        run_calls(extra_calls, extra, failures, gauge)
    finally:
        recorder.uninstall()
    gauge.measure()
    plain_samples = scaled(plain_samples, gauge)
    traced_scale = statistics.median(gauge.scale(i) for *_, i in traced_samples + extra)
    traced_samples = scaled(traced_samples, gauge)
    if wl.in_process:
        summary = summarize_recorder(recorder)
        recorder.save(OUT_DIR / f"spans-{wl.name}-seed{seed}.npz")
    else:
        summary = wl.trace_total
    calls = len(traced_samples) + len(extra)
    metrics = {}
    for layer in LAYERS:
        stats = summary["layers"].get(layer, {"calls": 0, "self_s": 0.0, "failed": 0})
        metrics[f"{layer}.calls"] = (stats["calls"] / calls, "count")
        metrics[f"{layer}.self_ms"] = (stats["self_s"] * traced_scale * 1e3 / calls, "ms")
        metrics[f"{layer}.failed"] = (stats["failed"] / calls, "count")
    extras = dict.fromkeys(EXTRA_UNITS, 0.0)
    extras.update(wl.layer_extras(plain_samples, traced_scale))
    for name, value in extras.items():
        metrics[name] = (value, EXTRA_UNITS[name])
    plain_s = sum(d for _, d, _ in plain_samples)
    traced_s = sum(d for _, d, _ in traced_samples)
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    detail = {"cycles": n, "traced_calls": calls, "untraced_s": plain_s, "traced_s": traced_s,
              "spans": len(recorder.start), "traced_speed_scale": traced_scale}
    attempted = len(plain_samples) + calls
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "samples": traced_samples}, detail


def per_call_breakdown(samples) -> dict:
    by_name: dict[str, list[float]] = {}
    for name, duration, _ in samples:
        by_name.setdefault(name, []).append(duration * 1e3)
    return {name: {"count": len(v), "median_ms": statistics.median(v)}
            for name, v in by_name.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_qitools()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, OUT_DIR / f"setup-{args.workload}").cycle(0)
        print(repr(time.monotonic()))
        return 0

    cpu = pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    wl = cls(args.seed, OUT_DIR / f"{args.workload}-seed{args.seed}")
    env = environment(args.seed, cpu)
    run = traced if args.trace else measure
    result, detail = run(wl, args.seconds, args.seed)
    failures = result["failures"]
    breakdown = per_call_breakdown(result["samples"])

    print(f"# qitools benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# run " + json.dumps({k: v for k, v in detail.items()
                                  if k not in ("raw_samples", "gauge_times")}, sort_keys=True))
    for name, stats in breakdown.items():
        print(f"# call {name:28s} n={stats['count']:4d} median={stats['median_ms']:10.3f} ms")
    for name, (value, unit) in result["metrics"].items():
        print(f"# metric {name:28s} {value:.6g} {unit}")
    for message in failures[:20]:
        print(f"bench: FAILED {message}", file=sys.stderr)

    line = {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record = dict(line, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  env=env, run=detail, calls=breakdown, failures=failures)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
