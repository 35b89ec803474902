"""Input-boundary rejections and the exit-code taxonomy of the CLI."""

import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitools.cli import (_MAX_DEMO_DIM, _MAX_DIM, _MAX_ENTRIES, _MAX_ROUNDS, _MAX_WERNER_DIM,
                         ValidationError, _cmd_demo, dump_document, emit, load_document, run)
from qitools.discrimination import (helstrom, unambiguous_feasible, unambiguous_mixture_povm,
                                     unambiguous_two_pure)
from qitools.entanglement import BipartiteState
from qitools.linalg import NumericError
from qitools.observables import Effect, stern_gerlach
from qitools.states import State
from seeded_corpus import CORPUS


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


POSITIVE = "dimensions must be positive integers"
PAIR = "dims must be one dimension or [out, in]"
OUTCOMES = "outcomes must be a list of labels"


@pytest.mark.parametrize(
    "text, detail",
    [
        ('{"kind": "povm", "dims": 2, "effects": []}', "a POVM needs at least one effect"),
        ('{"kind": "state", "dims": 1e400, "entries": []}', POSITIVE),
        ('{"kind": "state", "dims": 1.5, "entries": [[1, 0]]}', POSITIVE),
        ('{"kind": "state", "dims": true, "entries": [[1, 0]]}', POSITIVE),
        ('{"kind": "kraus", "dims": [2], "operators": []}', PAIR),
        ('{"kind": "choi", "dims": [2], "entries": []}', PAIR),
        ('{"kind": "povm", "dims": 1, "effects": [[[1, 0]]], "outcomes": "a"}', OUTCOMES),
        ('{"kind": "povm", "dims": 1, "effects": [[[1, 0]]], "outcomes": {"x": 1}}', OUTCOMES),
        ('{"kind": "povm", "dims": 1, "effects": [[[1, 0]]], "outcomes": null}', OUTCOMES),
    ],
)
def test_malformed_documents_exit_2(tmp_path, capsys, text, detail):
    with pytest.raises(ValidationError) as err:
        load_document(json.loads(text))
    assert detail in str(err.value)
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = ["discriminate", "--s1", str(path), "--s2", str(path), "--mode", "minerror"]
    assert run(argv) == 2
    assert detail in error_detail(capsys)


_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_number = st.integers() | st.floats(allow_nan=True, allow_infinity=True)
_dims = st.integers(-1, 3) | _number | st.lists(st.integers(-1, 3) | _number, max_size=3) | _json
_entries = st.lists(st.lists(_number, min_size=2, max_size=2) | _json, max_size=10) | _json
_documents = st.fixed_dictionaries(
    {"kind": st.sampled_from(["state", "ket", "effect", "povm", "kraus", "choi", "x"]) | _json},
    optional={
        "dims": _dims,
        "entries": _entries,
        "effects": st.lists(_entries, max_size=3) | _json,
        "operators": st.lists(_entries, max_size=3) | _json,
        "outcomes": _json,
        "bipartite_dims": _dims,
    },
) | _json


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_documents)
def test_load_document_raises_only_validation_errors(doc):
    try:
        load_document(doc)
    except ValidationError:
        pass


PRIOR = "prior must satisfy 0 < eta < 1"
BAD_PRIORS = [float("nan"), 0.0, 1.0, -0.5, 5.0]


@pytest.mark.parametrize("eta", BAD_PRIORS)
def test_unambiguous_schemes_reject_a_prior_outside_the_open_interval(eta):
    psi1, psi2 = np.array([1, 0]), np.array([0.6, 0.8])
    with pytest.raises(ValueError, match=PRIOR):
        unambiguous_two_pure(psi1, psi2, eta=eta)
    with pytest.raises(ValueError, match=PRIOR):
        unambiguous_mixture_povm(psi1, psi2, 0.5, eta=eta)


@pytest.mark.parametrize("eta", ["nan", "5", "0"])
def test_unambiguous_cli_rejects_a_bad_prior(tmp_path, capsys, eta):
    paths = []
    for name, entries in (("k1", [[1, 0], [0, 0]]), ("k2", [[0.6, 0], [0.8, 0]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "ket", "dims": 2, "entries": entries}))
        paths.append(str(path))
    argv = ["discriminate", "--s1", paths[0], "--s2", paths[1], "--mode", "unambiguous",
            "--eta", eta]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == PRIOR


def test_bipartite_state_rejects_non_positive_factor_dimensions(tmp_path, capsys):
    rho = State(np.eye(9) / 9)
    for da, db in ((-3, -3), (0, 9), (9, 0), (-1, -9)):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            BipartiteState(rho, da, db)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"kind": "state", "dims": 9,
                                "entries": [[1 / 9 if i % 10 == 0 else 0, 0] for i in range(81)]}))
    assert run(["entanglement", "--in", str(path), "--dims=-3,-3"]) == 2
    assert error_detail(capsys) == "dimension must be a positive integer"


def test_unambiguous_schemes_reject_a_zero_ket():
    for scheme in (unambiguous_two_pure, lambda a, b: unambiguous_mixture_povm(a, b, 0.5)):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            scheme(np.zeros(2), np.array([1, 0]))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--t"])
def test_qubit_channel_rejects_non_finite_parameters(capsys, bad, flag):
    values = {"--lambda": "0.5,0.5,0.5", "--t": "0,0,0.1"}
    values[flag] = f"0.2,{bad},0"
    argv = ["qubit-channel", "--lambda", values["--lambda"], "--t", values["--t"]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entries must be finite" in json.loads(captured.err)["detail"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--t"])
def test_qubit_channel_names_the_flag_of_a_non_finite_component(capsys, bad, flag):
    values = {"--lambda": "0.5,0.5,0.5", "--t": "0,0,0.1"}
    values[flag] = f"0.2,{bad},0"
    assert run(["qubit-channel", "--lambda", values["--lambda"], "--t", values["--t"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"].startswith(f"{flag}[1]: entries must be finite")


@pytest.mark.parametrize("text", ["0.2,0", "0.2,0,0,0", "1"])
@pytest.mark.parametrize("flag", ["--lambda", "--t"])
def test_qubit_channel_names_the_flag_of_a_malformed_triple(capsys, text, flag):
    values = {"--lambda": "0.5,0.5,0.5", "--t": "0,0,0.1"}
    values[flag] = text
    assert run(["qubit-channel", f"--lambda={values['--lambda']}", f"--t={values['--t']}"]) == 2
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert detail == f"{flag} needs three comma-separated reals, got {text!r}"


class _Report:
    def to_dict(self):
        return {}


def _recorder(seen: dict, key: str, result):
    """A stand-in for a library call that records its first argument under ``key``."""
    def call(value, *args, **kwargs):
        seen[key] = value
        return result
    return call


def test_demo_and_werner_dimension_caps_follow_the_document_cap():
    # The processor demo builds a d^3 x d^3 unitary, a Werner state d^2 x d^2 operators.
    assert _MAX_DEMO_DIM**3 <= _MAX_DIM < (_MAX_DEMO_DIM + 1) ** 3
    assert _MAX_WERNER_DIM**2 <= _MAX_DIM < (_MAX_WERNER_DIM + 1) ** 2
    assert (_MAX_DEMO_DIM, _MAX_WERNER_DIM) == (10, 32)
    assert _MAX_ROUNDS >= 20000  # the README's BB84 run


def test_the_caps_admit_their_own_value(monkeypatch, capsys):
    # The library calls are replaced, so nothing of the capped size is built.
    seen = {}
    monkeypatch.setattr("qitools.protocols.probabilistic_processor",
                        _recorder(seen, "processor", _Report()))
    monkeypatch.setattr("qitools.protocols.bb84", _recorder(seen, "bb84", _Report()))
    monkeypatch.setattr("qitools.entanglement.werner_report", _recorder(seen, "werner", {}))
    assert run(["demo", "processor", "--d", str(_MAX_DEMO_DIM)]) == 0
    assert run(["demo", "bb84", "--rounds", str(_MAX_ROUNDS)]) == 0
    assert run(["werner", "--d", str(_MAX_WERNER_DIM), "--mu", "0.3"]) == 0
    assert seen == {"processor": _MAX_DEMO_DIM, "bb84": _MAX_ROUNDS, "werner": _MAX_WERNER_DIM}


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["demo", "processor", "--d", "11"], "--d must be at most 10, got 11"),
        (["demo", "pqc", "--d", "11"], "--d must be at most 10, got 11"),
        (["demo", "teleport", "--d", "11"], "--d must be at most 10, got 11"),
        (["demo", "bb84", "--rounds", str(_MAX_ROUNDS + 1)],
         f"--rounds must be at most {_MAX_ROUNDS}, got {_MAX_ROUNDS + 1}"),
        (["demo", "pqc", "--rounds", str(_MAX_ROUNDS + 1)],
         f"--rounds must be at most {_MAX_ROUNDS}, got {_MAX_ROUNDS + 1}"),
        (["werner", "--d", "33", "--mu", "0.3"], "--d must be at most 32, got 33"),
    ],
)
def test_a_size_past_its_cap_exits_2_before_anything_is_built(monkeypatch, capsys, argv, detail):
    def fail(*args, **kwargs):
        raise AssertionError("a capped command reached the library")

    for name in ("probabilistic_processor", "private_quantum_channel", "teleport", "bb84"):
        monkeypatch.setattr(f"qitools.protocols.{name}", fail)
    monkeypatch.setattr("qitools.entanglement.werner_report", fail)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == detail


TOLERANCE = "must be a finite non-negative number"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-12"])
def test_a_bad_tolerance_flag_exits_2(capsys, tol):
    assert run([f"--tol={tol}", "werner", "--d", "2", "--mu", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--tol {TOLERANCE}" in json.loads(captured.err)["detail"]


@pytest.mark.parametrize("tol", ["abc", "", "nan", "inf", "-1"])
def test_a_bad_tolerance_variable_exits_2(monkeypatch, capsys, tol):
    monkeypatch.setenv("QITOOLS_TOL", tol)
    assert run(["werner", "--d", "2", "--mu", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"QITOOLS_TOL {TOLERANCE}" in json.loads(captured.err)["detail"]


def test_a_tolerance_flag_overrides_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("QITOOLS_TOL", "abc")
    assert run(["--tol", "0", "werner", "--d", "2", "--mu", "0.3"]) == 0
    monkeypatch.setenv("QITOOLS_TOL", "1e-7")
    assert run(["werner", "--d", "2", "--mu", "0.3"]) == 0


def test_documents_are_capped_in_each_dimension(tmp_path, capsys):
    ket = [[1.0, 0.0]] + [[0.0, 0.0]] * (_MAX_DIM - 1)
    assert load_document({"kind": "ket", "dims": _MAX_DIM, "entries": ket}).shape == (_MAX_DIM, 1)
    for doc in ({"kind": "ket", "dims": _MAX_DIM + 1, "entries": ket + [[0.0, 0.0]]},
                {"kind": "kraus", "dims": [1, _MAX_DIM + 1], "operators": []},
                {"kind": "state", "dims": 1, "entries": [[1, 0]],
                 "bipartite_dims": [1, _MAX_DIM + 1]}):
        with pytest.raises(ValidationError, match=f"dimensions must be at most {_MAX_DIM}"):
            load_document(doc)
        assert run(["certify-channel", "--in", write_json(tmp_path, doc)]) == 2
        assert f"dimensions must be at most {_MAX_DIM}" in error_detail(capsys)


def test_documents_are_capped_in_total_entries(tmp_path, capsys):
    side = int(np.sqrt(_MAX_DIM))
    zero = [[0.0, 0.0]]
    # At the cap: one operator of _MAX_ENTRIES entries.
    doc = {"kind": "kraus", "dims": [_MAX_DIM, _MAX_DIM], "operators": [zero * _MAX_ENTRIES]}
    assert load_document(doc).kraus_ops.shape == (1, _MAX_DIM, _MAX_DIM)
    # One more operator, one more POVM effect, or a Choi matrix one row too wide is past it.
    past = [
        dict(doc, operators=[zero * _MAX_ENTRIES, zero]),
        {"kind": "povm", "dims": _MAX_DIM, "effects": [zero, zero]},
        {"kind": "choi", "dims": [side + 1, side], "entries": zero},
    ]
    for bad in past:
        with pytest.raises(ValidationError, match=f"at most {_MAX_ENTRIES} entries"):
            load_document(bad)
    assert run(["certify-channel", "--in", write_json(tmp_path, past[2])]) == 2
    assert f"at most {_MAX_ENTRIES} entries" in error_detail(capsys)


def test_every_corpus_document_is_well_under_the_cap():
    for path in sorted(CORPUS.glob("*.*.json")):
        doc = json.loads(path.read_text())
        rows = [doc.get("entries", [])] + doc.get("effects", []) + doc.get("operators", [])
        assert 64 * sum(map(len, rows)) <= _MAX_ENTRIES, path.name


def test_a_document_of_the_wrong_kind_exits_2(tmp_path, capsys):
    """Each document-reading command on every document kind: a result or exit 2, never a crash."""
    docs = sorted(str(p) for p in CORPUS.glob("*.json") if p.name != "stdout.json")
    for name, obj in (("effect", Effect(np.eye(2) / 2)), ("povm", stern_gerlach([0, 0, 1]))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_document(obj)))
        docs.append(str(path))
    commands = [argv for doc in docs for argv in (["certify-channel", "--in", doc],
                                                  ["entanglement", "--in", doc, "--dims", "2,2"])]
    commands += [["discriminate", "--s1", s1, "--s2", s2, "--mode", mode]
                 for s1 in docs for s2 in docs for mode in ("minerror", "unambiguous")]
    for argv in commands:
        code = run(argv)
        out = capsys.readouterr().out
        assert code in (0, 2), argv
        assert code == 0 or out == "", argv


KRAUS, CHOI, STATE, KET = (str(CORPUS / name) for name in (
    "amplitude_damping.kraus.json", "depolarizing.choi.json", "mixed_a.state.json",
    "zero.ket.json"))


@pytest.mark.parametrize("argv, detail", [
    (["certify-channel", "--in", STATE], "certify-channel expects a kraus or choi document"),
    (["certify-channel", "--in", CHOI, "--rep", "kraus"],
     "certify-channel expects a kraus document"),
    (["entanglement", "--in", KRAUS, "--dims", "2,2"],
     "entanglement expects a state or ket document"),
    (["discriminate", "--s1", KRAUS, "--s2", STATE, "--mode", "minerror"],
     "discriminate --mode minerror expects a state or ket document"),
    (["discriminate", "--s1", KET, "--s2", STATE, "--mode", "unambiguous"],
     "discriminate --mode unambiguous expects a ket document"),
])
def test_a_command_names_the_document_kinds_it_reads(capsys, argv, detail):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == detail


def test_entanglement_names_a_malformed_dims_flag(capsys):
    for dims in ("2", "a,b", "2,2,2"):
        assert run(["entanglement", "--in", str(CORPUS / "noisy_bell.state.json"),
                    "--dims", dims]) == 2
        assert error_detail(capsys) == f"--dims must be two integers dA,dB, got {dims!r}"


@pytest.mark.parametrize("mode, s1, s2, shapes", [
    ("minerror", "mixed_a.state.json", "noisy_bell.state.json", "(2, 2) and (4, 4)"),
    ("unambiguous", "mef.ket.json", "tilted.ket.json", "(9, 1) and (2, 1)"),
])
def test_discriminate_names_documents_of_different_dimensions(capsys, mode, s1, s2, shapes):
    argv = ["discriminate", "--s1", str(CORPUS / s1), "--s2", str(CORPUS / s2), "--mode", mode]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == (
        f"states must share a dimension, got shapes {shapes}")


def test_each_two_state_scheme_rejects_a_dimension_mismatch():
    ket2, ket3 = np.array([1, 0]), np.array([0, 1, 0])
    calls = [lambda: helstrom(np.eye(2) / 2, np.eye(3) / 3),
             lambda: unambiguous_feasible(np.eye(2) / 2, np.eye(3) / 3),
             lambda: unambiguous_two_pure(ket2, ket3),
             lambda: unambiguous_mixture_povm(ket2, ket3, 0.5)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^states must share a dimension, got shapes \("):
            call()


def test_entanglement_rejects_dims_that_contradict_the_document(capsys):
    doc = str(CORPUS / "noisy_bell.state.json")  # bipartite_dims [2, 2]
    for dims in ("1,2", "4,1"):
        assert run(["entanglement", "--in", doc, "--dims", dims]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["detail"] == (
            f"--dims {dims} contradicts the document's bipartite_dims 2,2")
    assert run(["entanglement", "--in", doc, "--dims", "2,2"]) == 0


@pytest.mark.parametrize("text, argv, detail", [
    ('{"kind": "ket", "dims": 2', ["entanglement", "--dims", "1,2"], "{doc}: malformed JSON ("),
    ('{"kind": "ket", "dims": 2, "entries": [[1, 0], [0]]}', ["entanglement", "--dims", "1,2"],
     "entries[1]: entries must be [re, im] pairs"),
    ('{"kind": "ket", "dims": 2, "entries": [[2, 0], [0, 0]]}', ["entanglement", "--dims", "1,2"],
     "entries: ket norm is 2.0, not 1"),
    ('{"kind": "ket", "dims": 2, "entries": [[1, 0], [0, 0]]}',
     ["entanglement", "--dims", "1,2", "--tests", "ppt,bell"], "unknown entanglement test 'bell'"),
])
def test_a_rejected_document_or_flag_exits_2_with_its_message(tmp_path, capsys, text, argv, detail):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert run([*argv, "--in", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"].startswith(detail.format(doc=doc))


def test_rejections_that_argparse_choices_keep_from_the_command_line():
    with pytest.raises(TypeError, match="^cannot serialize object of type object$"):
        dump_document(object())
    with pytest.raises(ValidationError, match="^unknown format 'xml'$"):
        emit({"a": 1}, "xml")
    with pytest.raises(ValidationError, match="^unknown demo 'nope'$"):
        _cmd_demo(argparse.Namespace(name="nope", d=2, rounds=1, seed=0))
