"""Seeded-output corpus: the stdout of fixed CLI commands and of every demo.

``tests/corpus/stdout.json`` holds, for each command in ``COMMANDS``, its
argv and the stdout of ``cli.run``, and for each script under ``demos/``
its stdout.  ``test_seeded_corpus.py`` and ``test_demos.py`` compare fresh
output with it through ``output_differences``: the parsed structure, key order,
strings, ints and bools must match exactly, and floats to a relative 1e-9
(|a - b| <= 1e-9 * max(1, |a|, |b|)), so another numpy build may move the
last digits but a changed seeded stream fails.

A change that moves the output on purpose regenerates the corpus with

    PYTHONPATH=src python tests/seeded_corpus.py

and the diff of ``tests/corpus/stdout.json`` shows what moved.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "corpus"
EXPECTED = CORPUS / "stdout.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
REL_TOL = 1e-9


def _doc(name: str) -> str:
    return str((CORPUS / name).relative_to(ROOT))


# Document paths are relative to the repository root, where the commands run.
COMMANDS = [
    ["--seed", "7", "demo", "bb84", "--rounds", "200"],
    ["--seed", "7", "demo", "bb84", "--rounds", "200", "--eve"],
    ["demo", "b92", "--rounds", "200"],
    ["demo", "pqc", "--rounds", "50"],
    ["demo", "teleport", "--d", "3"],
    ["demo", "teleport", "--d", "6"],
    ["demo", "processor", "--d", "5"],
    ["demo", "meanking"],
    ["demo", "superdense"],
    ["werner", "--d", "3", "--mu", "0.3"],
    ["--format", "csv", "qubit-channel", "--lambda", "0.6,0.6,0.2", "--t", "0,0,0.3"],
    ["certify-channel", "--in", _doc("amplitude_damping.kraus.json")],
    ["certify-channel", "--in", _doc("depolarizing.choi.json"), "--rep", "choi"],
    ["entanglement", "--in", _doc("noisy_bell.state.json"), "--dims", "2,2",
     "--tests", "ppt,reduction,mef,chsh"],
    ["discriminate", "--s1", _doc("mixed_a.state.json"), "--s2", _doc("mixed_b.state.json"),
     "--mode", "minerror", "--eta", "0.4"],
    ["discriminate", "--s1", _doc("zero.ket.json"), "--s2", _doc("tilted.ket.json"),
     "--mode", "unambiguous"],
]


def cli_stdout(argv: list[str]) -> str:
    """stdout of ``cli.run(argv)`` in this process, run from the repository root."""
    from qitools.cli import run

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            code = run(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"qitools {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def demo_process(script: Path) -> subprocess.CompletedProcess:
    """Run a demo script against the source tree in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Parsing and comparison
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _text_tokens(text: str) -> list:
    """Lines of free text as alternating text and number tokens.

    Numbers become floats, except integers (no point, no exponent), which
    stay exact strings; whitespace inside a line is dropped, since numpy
    pads array columns by the width of their values.
    """
    lines = []
    for line in text.splitlines():
        tokens, pos = [], 0
        for m in _NUMBER.finditer(line):
            tokens.append(("text", "".join(line[pos:m.start()].split())))
            word = m.group()
            exact = re.fullmatch(r"[-+]?\d+", word)
            tokens.append(("int", word) if exact else ("float", float(word)))
            pos = m.end()
        tokens.append(("text", "".join(line[pos:].split())))
        lines.append(tokens)
    return lines


def _csv_cell(cell: str):
    try:
        return json.loads(cell)
    except ValueError:
        return cell


def parse(text: str, kind: str):
    """Parsed stdout: ``kind`` is "json", "csv" or "text" (a demo)."""
    if kind == "json":
        return json.loads(text, object_pairs_hook=lambda pairs: pairs)
    if kind == "csv":
        return [[_csv_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return _text_tokens(text)


def differences(got, want, path: str = "") -> list[str]:
    """Where two parsed outputs differ: exact but for floats (relative REL_TOL)."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, float):
        close = got == want or abs(got - want) <= REL_TOL * max(1.0, abs(got), abs(want))
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, (list, tuple)):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [line for i, (g, w) in enumerate(zip(got, want))
                for line in differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def output_differences(got: str, want: str, kind: str) -> list[str]:
    return differences(parse(got, kind), parse(want, kind))


def regenerate() -> None:
    cli = [{"argv": argv, "stdout": cli_stdout(argv)} for argv in COMMANDS]
    demos = {}
    for script in DEMOS:
        proc = demo_process(script)
        if proc.returncode != 0:
            raise RuntimeError(f"{script.name} failed:\n{proc.stderr}")
        demos[script.name] = proc.stdout
    payload = {"cli": cli, "demos": demos}
    EXPECTED.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
