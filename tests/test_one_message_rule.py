"""Each validation rule is written once.

A message is raised from one site in ``src/qitools``, so a rule that
several functions share lives in one helper.  A literal message is read
as written, and an f-string as its template, each placeholder read as
``{}``.  Outside ``linalg.py``
no module writes the size rule (``if n < 1: raise``, or an
``isinstance(n, np.integer)`` check that raises), the closed unit
interval (``0 <= x <= 1``) or the Hermitian check (``_hermitian``) by
hand: they go through ``linalg._require_size``,
``linalg._require_unit_interval`` and ``linalg._require_hermitian``.
"""

import ast
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from qitools.channels import AffineRep, ChoiMatrix, make
from qitools.entanglement import BipartiteState, werner
from qitools.linalg import eigh
from qitools.observables import efficiency_coarse_matrix, photon_counting
from qitools.protocols import Processor, bb84
from qitools.states import State

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qitools"


def _template(node: ast.AST) -> str | None:
    """A string constant as written, an f-string with each placeholder as ``{}``, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def _message_sites(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each message template passed first to a raised exception, with its sites."""
    sites = defaultdict(list)
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = _template(node.exc.args[0])
                if template is not None:
                    sites[template].append(f"{name}:{node.lineno}")
    return sites


def _repeated(sources: dict[str, str]) -> list[str]:
    return [f"{msg!r} at {', '.join(where)}"
            for msg, where in _message_sites(sources).items() if len(where) > 1]


def _is_int(node: ast.AST, values) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value in values


def _hand_rule(test: ast.AST) -> str | None:
    """The rule that an ``if`` test spells by hand, if any."""
    for node in ast.walk(test):
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Lt) and _is_int(node.comparators[0], (0, 1, 2))):
            return "size"
        if isinstance(node, ast.Attribute) and node.attr == "integer":
            return "size"
        if (isinstance(node, ast.Compare) and len(node.ops) == 2
                and all(isinstance(op, ast.LtE) for op in node.ops)
                and _is_int(node.left, (0,)) and _is_int(node.comparators[1], (1,))):
            return "unit interval"
    return None


def _hand_rules(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(isinstance(n, ast.Raise) for n in node.body):
            rule = _hand_rule(node.test)
            if rule:
                out.append(f"{name}:{node.lineno}: {rule}: {ast.unparse(node.test)}")
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "_hermitian":
                out.append(f"{name}:{node.lineno}: Hermitian: {ast.unparse(node)}")
    return out


def _package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_every_literal_message_is_raised_at_one_site():
    repeated = _repeated(_package_sources())
    assert not repeated, "message raised at more than one site:\n" + "\n".join(repeated)


def test_no_module_writes_a_shared_rule_by_hand():
    offences = [
        line
        for name, source in _package_sources().items()
        if name != "linalg.py"
        for line in _hand_rules(source, name)
    ]
    assert not offences, "rule written outside linalg:\n" + "\n".join(offences)


def test_the_message_scan_catches_a_planted_duplicate():
    one = 'def f(x):\n    if x:\n        raise ValueError("x is bad")\n'
    two = 'def g(y):\n    raise ValidationError("x is bad")\n'
    assert _repeated({"one": one}) == []
    assert _repeated({"one": one, "two": two}) == ["'x is bad' at one:3, two:2"]
    formatted = 'def h(x):\n    raise ValueError(f"{x} is bad")\n'
    assert _repeated({"one": formatted}) == []
    assert _repeated({"one": formatted, "two": formatted}) == ["'{} is bad' at one:2, two:2"]
    other = 'def k(y):\n    raise ValueError(f"{y!r:>4} is bad")\n'
    assert _repeated({"one": formatted, "two": other}) == ["'{} is bad' at one:2, two:2"]
    assert _repeated({"one": formatted, "two": one}) == []


def test_every_message_template_in_the_package_is_read():
    templates = _message_sites(_package_sources())
    assert "{} is not PSD: eigenvalue {} below {}" in templates
    assert "not completely positive: Choi eigenvalue {}" in templates
    assert len(templates) > 40


def test_the_rule_scan_sees_each_form():
    src = (
        "if d < 1:\n    raise ValueError('d')\n"
        "if n < 0 or m < 2:\n    raise ValueError('n')\n"
        "if not isinstance(n, (int, np.integer)):\n    raise ValueError('i')\n"
        "if not 0 <= p <= 1:\n    raise ValueError('p')\n"
        "h = _hermitian(a, tol)\n"
        "h = linalg._hermitian(a, tol)\n"
        "if d < 1:\n    d = 1\n"            # no raise: not a check
        "if not 0 < eta < 1:\n    raise ValueError('eta')\n"  # an open interval
    )
    rules = [line.split(": ")[1] for line in _hand_rules(src, "probe")]
    assert rules == ["size", "size", "size", "unit interval", "Hermitian", "Hermitian"]


RHO4 = State(np.eye(4) / 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BipartiteState(RHO4, 2.0, 2.0), "^dimension must be an integer, got 2.0$"),
        (lambda: BipartiteState(RHO4, True, 4), "^dimension must be an integer, got True$"),
        (lambda: State.maximally_mixed(2.5), "^dimension must be an integer, got 2.5$"),
        (lambda: werner(2.5, 0.3), "^dimension must be an integer, got 2.5$"),
        (lambda: bb84(2.5), "^rounds must be an integer, got 2.5$"),
        (lambda: werner(1, 0.3), "^dimension must be at least 2$"),
        (lambda: bb84(0), "^rounds must be a positive integer$"),
        (lambda: ChoiMatrix(np.eye(4) / 2, 2.0, 2.0), "^dimension must be an integer, got 2.0$"),
        (lambda: ChoiMatrix(np.eye(4) / 2, 2, 2.0), "^dimension must be an integer, got 2.0$"),
        (lambda: AffineRep(np.eye(3), np.zeros(3), 2.0), "^dimension must be an integer, got 2.0$"),
        (lambda: Processor(2.0, 1, np.eye(2)), "^dimension must be an integer, got 2.0$"),
        (lambda: make("depolarizing", d=2.5, p=0.1), "^dimension must be an integer, got 2.5$"),
        (lambda: photon_counting(0.5, 2.5), "^cutoff must be an integer, got 2.5$"),
        (lambda: efficiency_coarse_matrix(0.3, 0.5, -1), "^cutoff must be a non-negative integer$"),
    ],
)
def test_sizes_that_drifted_are_rejected_as_values(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_eigh_still_rejects_a_stack():
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        eigh(np.stack([np.eye(2)] * 3))
    for bad in (np.ones(2), np.ones((1,)), np.array(1.0)):
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
            eigh(bad)
