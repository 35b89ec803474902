import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qitools.cli import dump_document, load_document, run
from qitools.channels import KrausChannel, make
from qitools.entanglement import BipartiteState
from qitools.states import State


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def state_doc(matrix):
    m = np.asarray(matrix, dtype=complex)
    return {
        "kind": "state",
        "dims": m.shape[0],
        "entries": [[z.real, z.imag] for z in m.reshape(-1)],
    }


def ket_doc(vec):
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return {"kind": "ket", "dims": len(v), "entries": [[z.real, z.imag] for z in v]}


def test_document_round_trip():
    rho = State(np.diag([0.25, 0.75]))
    doc = dump_document(rho)
    again = load_document(doc)
    assert np.abs(again.matrix - rho.matrix).max() < 1e-12
    ch = make("depolarizing", d=2, p=0.3)
    again = load_document(dump_document(ch))
    assert isinstance(again, KrausChannel)
    assert len(again.kraus_ops) == len(ch.kraus_ops)


def test_document_validation_errors():
    from qitools.cli import ValidationError

    with pytest.raises(ValidationError):
        load_document({"kind": "nope"})
    with pytest.raises(ValidationError):
        load_document({"kind": "state", "dims": 2, "entries": [[1, 0]]})
    with pytest.raises(ValidationError) as err:
        load_document(state_doc(np.diag([1.5, -0.5])))
    assert "eigenvalue" in str(err.value)


def test_certify_channel_command(tmp_path, capsys):
    ch = make("depolarizing", d=2, p=0.5)
    path = write_json(tmp_path, "ch.json", dump_document(ch))
    assert run(["certify-channel", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cp"] and out["tp"] and out["unital"]


def test_qubit_channel_command(capsys):
    assert run(["qubit-channel", "--lambda", "-1,-1,-1", "--t", "0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cp"] is False
    assert run(["qubit-channel", "--lambda", "1,1,1", "--t", "0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cp"] is True


def test_werner_command(capsys):
    assert run(["werner", "--d", "2", "--mu", "0.4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entangled"] is True
    assert abs(out["swap_expectation"] + 0.2) < 1e-9


def test_entanglement_command(tmp_path, capsys):
    bell = ket_doc([1, 0, 0, 1])
    path = write_json(tmp_path, "bell.json", bell)
    code = run(["entanglement", "--in", path, "--dims", "2,2", "--tests", "ppt,reduction,chsh"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ppt"]["is_ppt"] is False
    assert out["reduction"]["detected"] is True


def test_discriminate_command(tmp_path, capsys):
    k1 = write_json(tmp_path, "k1.json", ket_doc([1, 0]))
    k2 = write_json(tmp_path, "k2.json", ket_doc([0.5, np.sqrt(0.75)]))
    assert run(["discriminate", "--s1", k1, "--s2", k2, "--mode", "unambiguous"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["p_success"] - 0.5) < 1e-9
    assert run(["discriminate", "--s1", k1, "--s2", k2, "--mode", "minerror"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["p_error"] - 0.5 * (1 - np.sqrt(3) / 2)) < 1e-9


def test_demo_bb84_command(capsys):
    assert run(["--seed", "7", "demo", "bb84", "--rounds", "2000", "--eve"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.18 < out["summary"]["qber"] < 0.32
    assert out["rounds"] == 2000


def test_demo_deterministic_output(capsys):
    assert run(["--seed", "3", "demo", "teleport"]) == 0
    first = capsys.readouterr().out
    assert run(["--seed", "3", "demo", "teleport"]) == 0
    second = capsys.readouterr().out
    assert first == second


# teleport is pinned by test_demo_deterministic_output above.
@pytest.mark.parametrize("name", ["superdense", "bb84", "b92", "pqc", "meanking", "processor"])
def test_every_seeded_demo_prints_identical_output(capsys, name):
    argv = ["--seed", "11", "demo", name, "--rounds", "300"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_closed_stdout_exits_1_without_traceback():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # More output than a pipe buffer holds, so the write must meet the closed end.
    argv = [sys.executable, "-m", "qitools.cli", "--seed", "7", "demo", "pqc", "--rounds", "5000"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Error" not in err, err


def test_exit_codes(tmp_path, capsys):
    bad = write_json(tmp_path, "bad.json", {"kind": "state", "dims": 2, "entries": []})
    assert run(["certify-channel", "--in", bad]) == 2
    missing = str(tmp_path / "missing.json")
    assert run(["certify-channel", "--in", missing]) == 2
    # numeric failure path: non-contractive fixed point is a NumericError,
    # exercised through the API (no CLI surface iterates), so just check
    # the mapping indirectly via an invalid werner parameter
    assert run(["werner", "--d", "2", "--mu", "1.5"]) == 2


def test_csv_format(capsys):
    assert run(["--format", "csv", "werner", "--d", "2", "--mu", "0.6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("swap_expectation,") for line in out.splitlines())


def test_csv_rows_of_a_list_of_records(capsys):
    """Each record of a list is flattened under its index; a flat list stays one cell."""
    assert run(["--format", "csv", "--seed", "7", "demo", "teleport", "--d", "2"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["key", "value"]
    cells = dict(rows[1:])
    assert [key for key in cells if key.startswith("records.")] == [
        f"records.{i}.{field}" for i in range(4)
        for field in ("fidelity", "outcome", "probability")]
    assert cells["records.1.outcome"] == "[0, 1]"
    assert cells["summary.probabilities"] == "[0.25, 0.25, 0.25, 0.25]"


def test_emitted_numbers_have_12_significant_digits(capsys):
    assert run(["werner", "--d", "3", "--mu", "0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    # -0.4/3 printed at 12 significant digits
    assert out["pt_min_eig"] == float(f"{-0.4 / 3:.12g}")


def test_tol_env_var_is_fallback(capsys, monkeypatch):
    # env var supplies the tolerance when no flag is given; the flag wins
    monkeypatch.setenv("QITOOLS_TOL", "0.3")
    assert run(["werner", "--d", "2", "--mu", "0.45"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ppt"] is True  # min PT eigenvalue -0.025 passes at tol 0.3
    assert run(["--tol", "1e-9", "werner", "--d", "2", "--mu", "0.45"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ppt"] is False


def test_all_document_kinds_round_trip():
    from qitools.cli import dump_document, load_document
    from qitools.channels import ChoiMatrix, to_choi
    from qitools.observables import Effect, Povm, minimal_ic_povm
    from qitools.linalg import unit_ket

    objs = [
        State(np.diag([0.3, 0.7])),
        Effect(np.diag([0.2, 0.9]).astype(complex)),
        minimal_ic_povm(2),
        make("depolarizing", d=2, p=0.4),
        to_choi(make("depolarizing", d=2, p=0.4)),
        unit_ket([1, 1j]),
        BipartiteState(State(np.diag([0.1, 0.2, 0.3, 0.4])), 2, 2),
    ]
    for obj in objs:
        doc = dump_document(obj)
        again = load_document(doc)
        assert type(again).__name__ == type(obj).__name__
        if isinstance(obj, BipartiteState):
            assert doc["bipartite_dims"] == [2, 2] and (again.dA, again.dB) == (2, 2)
        if hasattr(obj, "matrix") and hasattr(again, "matrix"):
            assert np.abs(np.asarray(again.matrix) - np.asarray(obj.matrix)).max() < 1e-12


def test_readme_commands_run(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [
        shlex.split(line)[1:]
        for line in readme.read_text().splitlines()
        if line.startswith("qitools ") and ".json" not in line
    ]
    assert ["--seed", "7", "demo", "bb84", "--rounds", "20000", "--eve"] in commands
    for argv in commands:
        assert run(argv) == 0, argv
        capsys.readouterr()
