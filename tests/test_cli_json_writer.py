"""The CLI's JSON writer prints exactly what ``json.dumps`` prints for the canonical payload.

``cli.emit(payload, "json")`` writes the ``indent=2``, ``sort_keys`` text in
one pass and encodes a record that recurs in a list, such as a shared BB84
round or private-quantum-channel message, once per records list.  ``reference`` below is the expression it
replaced, kept here as the byte contract.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qitools import cli
from qitools.channels import KrausChannel, to_choi
from qitools.cli import _canonicalize, dump_document, emit
from qitools.protocols import bb84, private_quantum_channel
from qitools.states import State
from seeded_corpus import COMMANDS, ROOT


def reference(payload) -> str:
    return json.dumps(_canonicalize(payload), sort_keys=True, indent=2)


def emitted_payloads(monkeypatch, argv) -> tuple[int, list]:
    """Exit code of ``cli.run(argv)`` and the payloads it handed to ``emit``."""
    seen = []

    def spy(payload, fmt):
        seen.append((payload, fmt))
        return emit(payload, fmt)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "emit", spy)
        code = cli.run(argv)
    return code, [payload for payload, fmt in seen if fmt == "json"]


# ---------------------------------------------------------------------------
# Payloads of real commands
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_corpus_commands_print_the_reference(monkeypatch, capsys, argv):
    monkeypatch.chdir(ROOT)
    code, payloads = emitted_payloads(monkeypatch, argv)
    assert code == 0
    assert len(payloads) == ("csv" not in argv)
    for payload in payloads:
        assert emit(payload, "json") == reference(payload)
    if payloads:
        assert capsys.readouterr().out == reference(payloads[0]) + "\n"


def _random_kraus(rng, d: int, n: int) -> list:
    g = rng.normal(size=(n * d, d)) + 1j * rng.normal(size=(n * d, d))
    return list(np.linalg.qr(g)[0].reshape(n, d, d))


def _random_state(rng, d: int) -> State:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return State(rho / np.trace(rho).real)


def _random_ket(rng, d: int) -> np.ndarray:
    v = rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1))
    return v / np.linalg.norm(v)


def test_batch_commands_print_the_reference(monkeypatch, tmp_path):
    """The JSON commands of the benchmark's cli-batch workload, on documents drawn here."""
    rng = np.random.default_rng(30)

    def doc(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_document(obj)))
        return str(path)

    nan_kraus = dump_document(KrausChannel(_random_kraus(rng, 2, 2)))
    nan_kraus["operators"][0][1][0] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(nan_kraus))
    commands = [
        (0, ["werner", "--d", "3", "--mu", "0.37"]),
        (0, ["certify-channel", "--in", doc("k2", KrausChannel(_random_kraus(rng, 2, 2)))]),
        (0, ["certify-channel", "--in", doc("c8", to_choi(KrausChannel(_random_kraus(rng, 8, 8))))]),
        (0, ["entanglement", "--in", doc("s9", _random_state(rng, 9)), "--dims", "3,3",
             "--tests", "ppt,reduction"]),
        (0, ["discriminate", "--s1", doc("s1", _random_state(rng, 4)),
             "--s2", doc("s2", _random_state(rng, 4)), "--mode", "minerror"]),
        (0, ["discriminate", "--s1", doc("k1", _random_ket(rng, 3)),
             "--s2", doc("k2ket", _random_ket(rng, 3)), "--mode", "unambiguous"]),
        (0, ["--seed", "7", "demo", "teleport", "--d", "3"]),
        (0, ["--seed", "7", "demo", "bb84", "--rounds", "2000", "--eve"]),
        (2, ["certify-channel", "--in", str(tmp_path / "nan.json")]),
    ]
    for want_code, argv in commands:
        code, payloads = emitted_payloads(monkeypatch, argv)
        assert code == want_code, argv
        assert len(payloads) == (code == 0), argv
        for payload in payloads:
            assert emit(payload, "json") == reference(payload), argv


# ---------------------------------------------------------------------------
# Payloads built to reach every branch
# ---------------------------------------------------------------------------

def test_every_kind_of_value_prints_the_reference():
    shared = [1, [2.5, "x"], {"k": None}]
    payload = {
        1: "int key", "1": "str key colliding with it", "b": -2, 2.5: "float key",
        "bools": [True, False, np.bool_(True), np.bool_(False)],
        "ints": [0, -7, 2**70, np.int64(-(2**63)), np.int32(5), np.uint8(255)],
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                   2.2250738585072014e-308, 1e300, -1e-300, 1 / 3, np.float32(0.1),
                   np.float64(2 / 3)],
        "complex": [1 + 2j, complex(-0.0, float("nan")), np.complex128(1 / 3 - 1e300j)],
        "arrays": [np.array(0.5), np.array(1 + 1j), np.arange(3), np.array([True, False]),
                   np.array([[1 + 2j, 3], [np.inf, -0.0j]]), np.zeros((0, 2)),
                   np.array([[1, 2], [3, 4]], dtype=np.int64)],
        "strings": ["", "ascii", "é ü ∞ 😀", "tab\tnew\nline\x00\x1f\x7f", '"quote" \\ /',
                    np.str_("numpy é")],
        "empty": [[], (), {}, np.array([])],
        "none": None,
        "tuple": (1, (2, (3,))),
        # Many siblings at one depth: their tolist() lists and [re, im] pairs are
        # temporaries, whose ids would be reused if the writer kept text for them
        # without keeping them alive.
        "siblings": [np.array([k, k + 1]) for k in range(64)] + [complex(k, -k) for k in range(64)],
        "matrices": [np.full((2, 2), k + 1j) for k in range(32)],
        # One list at depths 1 and 3: its text differs by indentation.
        "shared_1": shared,
        "nested": {"deeper": {"shared_3": shared}, "again": [shared, shared]},
    }
    assert emit(payload, "json") == reference(payload)
    for value in payload.values():
        assert emit({"v": value}, "json") == reference({"v": value})
        assert emit(value, "json") == reference(value)


@pytest.mark.parametrize("bad", [object(), np.complex64(1), {1, 2}, b"bytes", np.datetime64(0, "s")])
def test_an_unserializable_value_raises_type_error(bad):
    for payload in (bad, {"k": [1, bad]}, [np.array([bad], dtype=object)]):
        with pytest.raises(TypeError):
            reference(payload)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            emit(payload, "json")


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 1e300, -1e300, float("nan"), float("inf"), -float("inf")]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=1, min_side=0, max_side=3)),
    arrays(np.complex128, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=3)),
    arrays(np.int64, ()),
)
_KEYS = st.one_of(st.integers(-2, 2), st.sampled_from(["1", "-1", "a", "é", "\n"]), st.text(max_size=3))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_PAYLOADS)
def test_generated_payloads_print_the_reference(payload):
    assert emit(payload, "json") == reference(payload)
    # The same value at depths 1 (twice), 2 and 3, and twice in one list: that list
    # encodes it once, as it does a records list, and each other occurrence anew.
    again = {"a": payload, "b": [payload, {"c": payload}, payload], "d": payload}
    assert emit(again, "json") == reference(again)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def test_a_long_bb84_report_is_written_in_a_few_times_its_length():
    payload = bb84(100_000, eve="intercept_resend", rng=7).to_dict()
    tracemalloc.start()
    try:
        out = emit(payload, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 2x: the records' text and the report's.  Canonicalizing one dict
    # per round before encoding, as json.dumps needs, peaks at about 9x.
    assert peak <= 6 * len(out), peak / len(out)


def test_a_long_pqc_report_is_written_in_a_few_times_its_length():
    payload = private_quantum_channel(10, 20_000, rng=7).to_dict()
    tracemalloc.start()
    try:
        out = emit(payload, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 2x, as for BB84: each message's record is one of d^2 shared ones.
    # A fresh dict per message peaked at about 3.65x, and memoizing every
    # container of the call, each entry holding its object, at about 8.4x.
    assert peak <= 3 * len(out), peak / len(out)


def test_a_shared_record_is_encoded_once_per_records_list(monkeypatch):
    payload = bb84(2000, eve="intercept_resend", rng=7).to_dict()
    records = []

    def spy(obj, level):
        if isinstance(obj, dict) and "alice_basis" in obj:
            records.append(obj)
        return encode_items(obj, level)

    encode_items = cli._encode_items
    monkeypatch.setattr(cli, "_encode_items", spy)
    assert emit(payload, "json") == reference(payload)
    assert len(records) <= 96
