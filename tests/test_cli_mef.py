"""The entanglement command's maximally-entangled-fraction test, and the
finiteness check at the Choi-matrix constructor."""

import json

import numpy as np
import pytest

from qitools.channels import ChoiMatrix
from qitools.cli import run


def write_ket(tmp_path, vec):
    v = np.asarray(vec, dtype=complex) / np.linalg.norm(vec)
    path = tmp_path / "ket.json"
    path.write_text(json.dumps({"kind": "ket", "dims": len(v),
                                "entries": [[z.real, z.imag] for z in v]}))
    return str(path)


@pytest.mark.parametrize("vec, value, entangled", [
    ([1, 0, 0, 1], 1.0, True),
    ([0, 1, 0, 0], 0.5, False),
])
def test_entanglement_mef_command(tmp_path, capsys, vec, value, entangled):
    path = write_ket(tmp_path, vec)
    assert run(["entanglement", "--in", path, "--dims", "2,2", "--tests", "mef"]) == 0
    out = json.loads(capsys.readouterr().out)["mef"]
    assert abs(out["value"] - value) < 1e-12
    assert out["entangled"] is entangled


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_choi_matrix_rejects_non_finite_entries(bad):
    m = np.eye(4, dtype=complex) / 2
    m[3, 3] = bad
    with pytest.raises(ValueError, match=r"Choi matrix\[15\]: entries must be finite"):
        ChoiMatrix(m, 2, 2)


def test_non_finite_choi_document_exits_2(tmp_path, capsys):
    entries = [[0.5, 0], [0, 0], [0, 0], [float("nan"), 0]]
    path = tmp_path / "choi.json"
    path.write_text(json.dumps({"kind": "choi", "dims": [1, 2], "entries": entries}))
    assert run(["certify-channel", "--in", str(path)]) == 2
    assert "entries must be finite" in json.loads(capsys.readouterr().err)["detail"]
