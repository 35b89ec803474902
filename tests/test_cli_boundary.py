"""Input-boundary rejections and the exit-code taxonomy of the CLI."""

import json

import numpy as np
import pytest

from qitools.cli import ValidationError, load_document, run
from qitools.linalg import NumericError


def write_json(tmp_path, payload):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    return str(path)


def error_detail(capsys) -> str:
    return json.loads(capsys.readouterr().err)["detail"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_are_rejected(tmp_path, capsys, bad):
    doc = {"kind": "kraus", "dims": 2, "operators": [[[1, 0], [0, 0], [0, 0], [bad, 0]]]}
    with pytest.raises(ValidationError, match="finite"):
        load_document(doc)
    assert run(["certify-channel", "--in", write_json(tmp_path, doc)]) == 2
    assert "operators[0][3]: entries must be finite" in error_detail(capsys)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "kraus", "dims": -1, "operators": [[[1, 0]]]},
        {"kind": "kraus", "dims": [2, 0], "operators": [[]]},
        {"kind": "choi", "dims": [-1, -1], "entries": [[1, 0]]},
        {"kind": "state", "dims": 0, "entries": []},
        {"kind": "state", "dims": 1, "entries": [[1, 0]], "bipartite_dims": [-1, -1]},
    ],
)
def test_non_positive_dims_are_rejected(tmp_path, capsys, doc):
    with pytest.raises(ValidationError, match="dimensions must be positive integers"):
        load_document(doc)
    assert run(["certify-channel", "--in", write_json(tmp_path, doc)]) == 2
    assert "dimensions must be positive integers" in error_detail(capsys)


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("SVD did not converge"), NumericError("stuck")])
def test_numeric_failures_exit_3(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    # The werner handler imports werner_report when it runs, so patch it at its source.
    monkeypatch.setattr("qitools.entanglement.werner_report", fail)
    assert run(["werner", "--d", "2", "--mu", "0.4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "numeric", "detail": str(exc)}


@pytest.mark.parametrize("demo", ["teleport", "pqc", "processor"])
def test_demo_rejects_zero_dimension(capsys, demo):
    assert run(["demo", demo, "--d", "0"]) == 2
    assert error_detail(capsys) == "dimension must be a positive integer"
