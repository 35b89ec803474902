"""Which qitools modules each CLI subcommand loads, and the lazy package contract.

Every probe runs in a fresh interpreter, because the test session itself has
imported every module long before.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qitools

ROOT = Path(__file__).resolve().parents[1]

# Runs one CLI command and prints its exit code and the qitools modules it
# loaded (cli itself excluded); the command's own stdout is discarded.
CLI_PROBE = """
import contextlib, io, json, sys
from qitools import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
loaded = [m.split(".", 1)[1] for m in sys.modules if m.startswith("qitools.")]
print(json.dumps({"code": code, "modules": sorted(set(loaded) - {"cli"})}))
"""

ENTANGLEMENT = ["entanglement", "linalg", "rand", "states"]
CHANNELS = ["channels", "linalg", "rand", "states"]
DISCRIMINATION = ["discrimination", "linalg", "observables", "states"]
PROTOCOLS = ["linalg", "observables", "protocols", "rand", "states"]


def run_python(*argv) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def entries(m) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


@pytest.fixture
def docs(tmp_path):
    """Paths of one matrix document per kind the subcommands read."""
    flip = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    nan_op = np.eye(2, dtype=complex) / np.sqrt(2)
    nan_op[0, 1] = np.nan
    payloads = {
        "kraus": {"kind": "kraus", "dims": [2, 2],
                  "operators": [entries(np.eye(2) / np.sqrt(2)), entries(flip)]},
        "choi": {"kind": "choi", "dims": [2, 2], "entries": entries(np.eye(4) / 4)},
        "nan_kraus": {"kind": "kraus", "dims": [2, 2],
                      "operators": [entries(nan_op), entries(flip)]},
        "state": {"kind": "state", "dims": 4, "entries": entries(np.diag([0.4, 0.3, 0.2, 0.1]))},
        "mixed": {"kind": "state", "dims": 4, "entries": entries(np.eye(4) / 4)},
        "ket0": {"kind": "ket", "dims": 2, "entries": entries([1, 0])},
        "ket_plus": {"kind": "ket", "dims": 2, "entries": entries(np.ones(2) / np.sqrt(2))},
    }
    paths = {}
    for name, payload in payloads.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["werner", "--d", "2", "--mu", "0.4"], ENTANGLEMENT),
        (["entanglement", "--in", "{state}", "--dims", "2,2"], ENTANGLEMENT),
        (["entanglement", "--in", "{ket_plus}", "--dims", "1,2"], ENTANGLEMENT),
        (["certify-channel", "--in", "{kraus}"], CHANNELS),
        (["certify-channel", "--in", "{choi}"], CHANNELS),
        (["qubit-channel", "--lambda", "0.5,0.5,0.5", "--t", "0,0,0"], CHANNELS),
        (["discriminate", "--s1", "{state}", "--s2", "{mixed}", "--mode", "minerror"],
         DISCRIMINATION),
        (["discriminate", "--s1", "{ket0}", "--s2", "{ket_plus}", "--mode", "unambiguous"],
         DISCRIMINATION),
        (["--seed", "7", "demo", "bb84", "--rounds", "200", "--eve"], PROTOCOLS),
        (["--seed", "7", "demo", "teleport", "--d", "3"],
         ["discrimination", "linalg", "observables", "protocols", "rand", "states"]),
    ],
)
def test_subcommand_loads_only_its_modules(docs, argv, modules):
    argv = [arg.format(**docs) for arg in argv]
    result = json.loads(run_python("-c", CLI_PROBE, *argv))
    assert result == {"code": 0, "modules": modules}


def test_malformed_document_exits_2_before_channels_load(docs):
    result = json.loads(run_python("-c", CLI_PROBE, "certify-channel", "--in", docs["nan_kraus"]))
    assert result == {"code": 2, "modules": ["linalg"]}


def test_bare_import_loads_no_submodule():
    out = run_python("-c", "import sys, qitools; print([m for m in sys.modules if 'qitools.' in m])")
    assert out.strip() == "[]"


def test_first_access_imports_the_submodule():
    probe = (
        "import sys, qitools; from qitools import instruments; "
        "print(instruments is sys.modules['qitools.instruments'] is qitools.instruments, "
        "'qitools.protocols' in sys.modules)"
    )
    assert run_python("-c", probe).split() == ["True", "False"]


def test_lazy_package_contract():
    from qitools import linalg

    assert qitools.ATOL is linalg.ATOL
    for name in set(qitools.__all__) - {"ATOL"}:
        assert getattr(qitools, name) is importlib.import_module(f"qitools.{name}")
    namespace = {}
    exec("from qitools import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qitools.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        qitools.nope
