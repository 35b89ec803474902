"""Batch command-line front end.

Matrix documents are JSON objects with a ``kind`` tag (state, effect,
povm, kraus, choi, ket), dimensions, and row-major entries as [re, im]
pairs.  Output is canonical JSON (or CSV for flat tables) printed with
12 significant digits; identical seeds and flags give byte-identical
output.  JSON stdout is, byte for byte, json.dumps(canonical payload,
sort_keys=True, indent=2), written in one pass that encodes each record
shared between BB84/B92 rounds once per records list.  Exit codes:
0 success, 1 stdout closed before the output was written, 2 validation
failure, 3 numeric failure.

``--tol`` (fallback ``QITOOLS_TOL``) is the verdict tolerance of
certify-channel, entanglement and werner, a finite non-negative number;
documents are validated at ``linalg.ATOL``, and declare at most 1024 per
dimension and 1024^2 entries in all.  Caps: demo --d 10, werner --d 32, demo --rounds 100000.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

# Library modules are imported where used, so a call loads only what it runs.
from .linalg import ATOL, NumericError, _require_finite

TOL_ENV_VAR = "QITOOLS_TOL"

# A document declares at most _MAX_DIM per dimension and _MAX_ENTRIES entries in all.
_MAX_DIM = 1024
_MAX_ENTRIES = _MAX_DIM**2
# No operator is wider than _MAX_DIM: d^3 x d^3 in the processor demo, d^2 x d^2 in werner.
_MAX_DEMO_DIM = int(_MAX_DIM ** (1 / 3))
_MAX_WERNER_DIM = int(_MAX_DIM**0.5)
_MAX_ROUNDS = 100_000


class ValidationError(ValueError):
    """Malformed input document or invariant violation."""


# ---------------------------------------------------------------------------
# Matrix documents
# ---------------------------------------------------------------------------

def _at_most(value, name: str, cap: int):
    """``value``, or ValidationError when it exceeds ``cap``."""
    if value > cap:
        raise ValidationError(f"{name} must be at most {cap}, got {value!r}")
    return value


def _dim(value) -> int:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 1 <= value < np.inf and value == int(value)):
        raise ValidationError(f"dimensions must be positive integers, got {value!r}")
    return int(_at_most(value, "dimensions", _MAX_DIM))


def _dims_pair(dims) -> tuple[int, int]:
    """(out, in) from ``[out, in]`` or a single shared dimension."""
    pair = dims if isinstance(dims, list) else [dims, dims]
    if len(pair) != 2:
        raise ValidationError(f"dims must be one dimension or [out, in], got {dims!r}")
    return _dim(pair[0]), _dim(pair[1])


def _entries_to_array(entries, rows: int, cols: int, path: str, count: int = 1) -> np.ndarray:
    """One of the ``count`` rows x cols matrices of a document, from its [re, im] entries."""
    if count * rows * cols > _MAX_ENTRIES:
        raise ValidationError(f"a document holds at most {_MAX_ENTRIES} entries, "
                              f"got {count * rows * cols}")
    if len(entries) != rows * cols:
        raise ValidationError(f"{path}: expected {rows * cols} entries, got {len(entries)}")
    flat = []
    for i, pair in enumerate(entries):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValidationError(f"{path}[{i}]: entries must be [re, im] pairs")
        flat.append(complex(pair[0], pair[1]))
    arr = np.array(flat, dtype=complex)
    _require_finite(arr, path)
    return arr.reshape(rows, cols)


def _array_to_entries(a: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).reshape(-1)]


def load_document(doc: dict):
    """Parse a matrix document into a toolkit object, or raise ValidationError."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "state":
            d = _dim(doc["dims"])
            from .states import State
            state = State(_entries_to_array(doc["entries"], d, d, "entries"))
            if "bipartite_dims" in doc:
                da, db = (_dim(x) for x in doc["bipartite_dims"])
                from .entanglement import BipartiteState
                return BipartiteState(state, da, db)
            return state
        if kind == "ket":
            d = _dim(doc["dims"])
            v = _entries_to_array(doc["entries"], d, 1, "entries")
            n = np.linalg.norm(v)
            if abs(n - 1) > 1e-6:
                raise ValidationError(f"entries: ket norm is {n}, not 1")
            return v
        if kind == "effect":
            d = _dim(doc["dims"])
            m = _entries_to_array(doc["entries"], d, d, "entries")
            from .observables import Effect
            return Effect(m)
        if kind == "povm":
            d = _dim(doc["dims"])
            effs = [_entries_to_array(e, d, d, f"effects[{i}]", len(doc["effects"]))
                    for i, e in enumerate(doc["effects"])]
            outs = doc.get("outcomes", list(range(len(effs))))
            if not isinstance(outs, list):
                raise ValidationError(f"outcomes must be a list of labels, got {outs!r}")
            from .observables import Povm
            return Povm(tuple(outs), tuple(effs))
        if kind == "kraus":
            out_d, in_d = _dims_pair(doc["dims"])
            ops = [_entries_to_array(op, out_d, in_d, f"operators[{i}]", len(doc["operators"]))
                   for i, op in enumerate(doc["operators"])]
            from .channels import KrausChannel
            return KrausChannel(ops)
        if kind == "choi":
            out_d, in_d = _dims_pair(doc["dims"])
            m = _entries_to_array(doc["entries"], out_d * in_d, out_d * in_d, "entries")
            from .channels import ChoiMatrix
            return ChoiMatrix(m, in_d, out_d)
    except ValidationError:
        raise
    except (KeyError, TypeError, OverflowError) as err:
        raise ValidationError(f"missing or malformed field: {err}") from err
    except ValueError as err:
        raise ValidationError(f"{kind}: {err}") from err
    raise ValidationError(f"unknown document kind {kind!r}")


def dump_document(obj) -> dict:
    from .channels import ChoiMatrix, KrausChannel
    from .entanglement import BipartiteState
    from .observables import Effect, Povm
    from .states import State

    if isinstance(obj, State):
        doc = {"kind": "state", "dims": obj.dim, "entries": _array_to_entries(obj.matrix)}
        if isinstance(obj, BipartiteState):
            doc["bipartite_dims"] = [obj.dA, obj.dB]
        return doc
    if isinstance(obj, Effect):
        return {"kind": "effect", "dims": obj.dim, "entries": _array_to_entries(obj.matrix)}
    if isinstance(obj, Povm):
        return {
            "kind": "povm",
            "dims": obj.dim,
            "outcomes": [str(x) for x in obj.outcomes],
            "effects": [_array_to_entries(e) for e in obj.effects],
        }
    if isinstance(obj, KrausChannel):
        return {
            "kind": "kraus",
            "dims": [obj.out_dim, obj.in_dim],
            "operators": [_array_to_entries(a) for a in obj.kraus_ops],
        }
    if isinstance(obj, ChoiMatrix):
        return {
            "kind": "choi",
            "dims": [obj.out_dim, obj.in_dim],
            "entries": _array_to_entries(obj.matrix),
        }
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[1] == 1:
        return {"kind": "ket", "dims": obj.shape[0], "entries": _array_to_entries(obj)}
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: malformed JSON ({err})") from err


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _round_sig(x: float) -> float:
    if x == 0 or not math.isfinite(x):
        return float(x)
    return float(f"{x:.12g}")


def _canonical_leaf(obj):
    """A scalar as printed: bool, int, a float at 12 significant digits, complex as [re, im]."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, complex):
        return [_round_sig(obj.real), _round_sig(obj.imag)]
    return obj


def _canonicalize(obj):
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canonicalize(obj.tolist())
    return _canonical_leaf(obj)


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


# The text json.dumps writes for each type of canonical scalar.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(obj, level: int) -> str:
    """``json.dumps(_canonicalize(obj), sort_keys=True, indent=2)`` for a value ``level`` deep."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (dict, list, tuple)):
        return _encode_items(obj, level)
    leaf = _canonical_leaf(obj)
    text = _SCALAR_TEXT.get(type(leaf))
    if text is not None:
        return text(leaf)
    if isinstance(leaf, list):  # a complex number's [re, im]
        return _encode_items(leaf, level)
    if isinstance(leaf, str):
        return encode_basestring_ascii(leaf)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode_items(obj, level: int) -> str:
    """The text of a dict (keys as ``str``, sorted) or a list, its items ``level + 1`` deep."""
    sep = ",\n" + "  " * (level + 1)
    parts = []
    if isinstance(obj, dict):
        keyed = {str(k): v for k, v in obj.items()}  # the last of colliding keys wins
        for k in sorted(keyed):
            parts += (sep, encode_basestring_ascii(k), ": ", _encode(keyed[k], level + 1))
        brackets = "{}"
    else:
        # The text of each dict, list or tuple item by id, so a record shared between
        # rounds is encoded once per list.  The list holds its items while it is
        # written, so no id is reused.
        texts = {}
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                text = texts.get(id(v)) or texts.setdefault(id(v), _encode_items(v, level + 1))
            else:
                text = _encode(v, level + 1)
            parts += (sep, text)
        brackets = "[]"
    if not parts:
        return brackets
    # One join, so a large item's text is copied once, into the result.
    parts[0] = brackets[0] + sep[1:]
    parts.append("\n" + "  " * level + brackets[1])
    return "".join(parts)


def emit(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _encode(payload, 0)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        flat = _flatten(_canonicalize(payload))
        writer.writerow(["key", "value"])
        for key, value in flat:
            writer.writerow([key, value])
        return buf.getvalue().rstrip("\n")
    raise ValidationError(f"unknown format {fmt!r}")


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            rows.extend(_flatten(payload[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, list):
        if all(not isinstance(v, (dict, list)) for v in payload):
            rows.append((prefix.rstrip("."), json.dumps(payload)))
        else:
            for i, v in enumerate(payload):
                rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), payload))
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _document(path: str, command: str, kinds: tuple[str, ...]):
    """The toolkit object of the document at ``path``, or ValidationError unless its
    kind is one of ``kinds``, the kinds ``command`` reads."""
    doc = _read_json(path)
    obj = load_document(doc)
    if doc["kind"] not in kinds:
        raise ValidationError(f"{command} expects a {' or '.join(kinds)} document")
    return obj


def _state_of(obj):
    """The ``State`` of a state or ket document's object."""
    from .states import State

    return State.from_ket(obj) if isinstance(obj, np.ndarray) else obj


def _cmd_certify_channel(args) -> dict:
    kinds = ("kraus", "choi") if args.rep is None else (args.rep,)
    obj = _document(args.infile, "certify-channel", kinds)
    from .channels import certify

    return certify(obj, tol=args.tol)


def _cmd_entanglement(args) -> dict:
    obj = _document(args.infile, "entanglement", ("state", "ket"))
    from .entanglement import (BipartiteState, chsh_value, max_entangled_fraction, ppt,
                               reduction_criterion)

    try:
        da, db = (int(x) for x in args.dims.split(","))
    except ValueError:
        raise ValidationError(f"--dims must be two integers dA,dB, got {args.dims!r}") from None
    if not isinstance(obj, BipartiteState):
        obj = BipartiteState(_state_of(obj), da, db)
    if (obj.dA, obj.dB) != (da, db):
        raise ValidationError(f"--dims {da},{db} contradicts the document's bipartite_dims "
                              f"{obj.dA},{obj.dB}")
    tests = args.tests.split(",") if args.tests else ["ppt", "reduction"]
    out = {}
    for test in tests:
        if test == "ppt":
            is_ppt, min_eig = ppt(obj, tol=args.tol)
            out["ppt"] = {"is_ppt": is_ppt, "pt_min_eig": min_eig}
        elif test == "reduction":
            detected, e1, e2 = reduction_criterion(obj, tol=args.tol)
            out["reduction"] = {"detected": detected, "min_eigs": [e1, e2]}
        elif test == "mef":
            value = max_entangled_fraction(obj, rng=args.seed)
            out["mef"] = {"value": value, "entangled": value > 1 / obj.dA + 1e-6}
        elif test == "chsh":
            s2 = 1 / np.sqrt(2)
            value = chsh_value(obj, (1, 0, 0), (0, 1, 0), (s2, s2, 0), (s2, -s2, 0))
            out["chsh"] = {"value": value, "entangled": value < -args.tol}
        else:
            raise ValidationError(f"unknown entanglement test {test!r}")
    return out


def _cmd_discriminate(args) -> dict:
    command = f"discriminate --mode {args.mode}"
    kinds = ("state", "ket") if args.mode == "minerror" else ("ket",)
    obj1, obj2 = (_document(path, command, kinds) for path in (args.s1, args.s2))
    from .discrimination import helstrom, unambiguous_two_pure

    if args.mode == "minerror":
        result = helstrom(_state_of(obj1), _state_of(obj2), eta=args.eta)
    else:
        result = unambiguous_two_pure(obj1, obj2, eta=args.eta)
    return {
        "mode": args.mode,
        "eta": args.eta,
        "p_success": result.p_success,
        "p_error": result.p_error,
        "outcomes": [str(x) for x in result.povm.outcomes],
        "effects": [_array_to_entries(e) for e in result.povm.effects],
    }


def _cmd_werner(args) -> dict:
    from .entanglement import werner_report

    return werner_report(_at_most(args.d, "--d", _MAX_WERNER_DIM), args.mu, tol=args.tol)


def _cmd_qubit_channel(args) -> dict:
    params = []
    for flag, text in (("--lambda", args.lmbda), ("--t", args.t)):
        v = np.array([float(x) for x in text.split(",")])
        if v.shape != (3,):
            raise ValidationError(f"{flag} needs three comma-separated reals, got {text!r}")
        _require_finite(v, flag)  # names the flag and the component, e.g. --lambda[1]
        params.append(v)
    from .channels import qubit_cp_check

    report = qubit_cp_check(*params)
    return {key: report[key] for key in ("cp", "choi_min_eig", "inequalities")}


def _cmd_demo(args) -> dict:
    from .protocols import (b92, bb84, mean_king, private_quantum_channel,
                            probabilistic_processor, superdense, teleport)

    _at_most(args.d, "--d", _MAX_DEMO_DIM)
    _at_most(args.rounds, "--rounds", _MAX_ROUNDS)
    name = args.name
    if name == "teleport":
        from .states import State
        report = teleport(State.maximally_mixed(args.d), rng=args.seed)
    elif name == "superdense":
        report = superdense(args.message, rng=args.seed)
    elif name == "bb84":
        eve = "intercept_resend" if args.eve else "none"
        report = bb84(args.rounds, eve=eve, rng=args.seed)
    elif name == "b92":
        report = b92(args.rounds, args.overlap, rng=args.seed)
    elif name == "pqc":
        report = private_quantum_channel(args.d, args.rounds, rng=args.seed)
    elif name == "meanking":
        report = mean_king(rng=args.seed)
    elif name == "processor":
        from .rand import haar_unitary
        target = haar_unitary(args.d, np.random.default_rng(args.seed))
        report = probabilistic_processor(args.d, target, rng=args.seed)
    else:
        raise ValidationError(f"unknown demo {name!r}")
    return report.to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qitools", description=__doc__)
    parser.add_argument("--tol", type=float, default=None,
                        help="verdict tolerance of certify-channel, entanglement and werner")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify-channel", help="CP/TP/unitality report for a channel")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rep", choices=["kraus", "choi"], default=None)
    p.set_defaults(func=_cmd_certify_channel)

    p = sub.add_parser("entanglement", help="entanglement tests on a bipartite state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dims", required=True, help="dA,dB")
    p.add_argument("--tests", default=None, help="comma list: ppt,reduction,mef,chsh")
    p.set_defaults(func=_cmd_entanglement)

    p = sub.add_parser("discriminate", help="two-state discrimination schemes")
    p.add_argument("--s1", required=True)
    p.add_argument("--s2", required=True)
    p.add_argument("--mode", choices=["minerror", "unambiguous"], required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.set_defaults(func=_cmd_discriminate)

    p = sub.add_parser("werner", help="full report on a Werner state")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=_cmd_werner)

    p = sub.add_parser("demo", help="protocol simulations")
    p.add_argument(
        "name",
        choices=["teleport", "superdense", "bb84", "b92", "pqc", "meanking", "processor"],
    )
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--eve", action="store_true")
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--message", type=int, default=0)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("qubit-channel", help="CP check for a diagonal qubit map")
    p.add_argument("--lambda", dest="lmbda", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(func=_cmd_qubit_channel)

    return parser


def _tolerance(flag: float | None) -> float:
    """``--tol``, else ``QITOOLS_TOL``, else ``ATOL``: a finite non-negative number."""
    text = flag if flag is not None else os.environ.get(TOL_ENV_VAR, ATOL)
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan
    if not 0 <= tol < np.inf:
        source = "--tol" if flag is not None else TOL_ENV_VAR
        raise ValidationError(f"{source} must be a finite non-negative number, got {text!r}")
    return tol


def _merge_value_flags(argv):
    """Join flags with values that start with '-' (e.g. --lambda -1,-1,-1)."""
    merged = []
    for token in argv:
        if merged and merged[-1] in ("--lambda", "--t"):
            merged[-1] = f"{merged[-1]}={token}"
        else:
            merged.append(token)
    return merged


def run(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_value_flags(list(argv)))
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        args.tol = _tolerance(args.tol)
        payload = args.func(args)
        print(emit(payload, args.format))
        return 0
    # LinAlgError subclasses ValueError, so the numeric branch comes first.
    except (NumericError, np.linalg.LinAlgError) as err:
        print(json.dumps({"error": "numeric", "detail": str(err)}), file=sys.stderr)
        return 3
    except ValueError as err:
        print(json.dumps({"error": "validation", "detail": str(err)}), file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except BrokenPipeError:
        # The reader went away (e.g. ``qitools ... | head``).  Point stdout
        # at devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
