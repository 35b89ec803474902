"""Every public top-level function or class in the package, and every public
method of such a class, is used somewhere, and so is every defaulted
parameter of such a function or method.

A name counts as used when some Python file under ``src/``, ``tests/`` or
``demos/`` refers to it in code: as a name, an attribute or an imported
name (a call inside the defining module counts).  A word in a docstring,
a comment or a string is not a use.  Names with a leading underscore are
private and exempt.

A defaulted parameter counts as set when some call under ``src/``,
``tests/``, ``demos/`` or ``bench/`` gives it: by keyword, at its position,
or through ``*``/``**`` unpacking.  Calls are matched by the function's
bare name, so a call of any function of that name counts.  A function that
is used as a value rather than called (passed, stored, wrapped) counts as
setting every parameter; a name that a file binds as a variable or an
argument is that variable there, not a use of the function.

Every name that a file under ``tests/`` imports is referred to in that
file's code, as a name or the base of an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qitools"


def _public(nodes) -> list:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions(path: Path) -> list[str]:
    """Public top-level functions and classes, and the public methods of those classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = _public(tree.body)
    methods = [f"{cls.name}.{node.name}" for cls in top if isinstance(cls, ast.ClassDef)
               for node in _public(cls.body)]
    return [node.name for node in top] + methods


def _references(sources: list[str]) -> Counter:
    """Identifiers that the code of ``sources`` refers to, with their counts."""
    refs = Counter()
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
    return refs


def _unused(definitions: dict[str, list[str]], sources: list[str]) -> list[str]:
    refs = _references(sources)
    return [f"{module}.{name}" for module, names in definitions.items()
            for name in names if not refs[name.rpartition(".")[2]]]


def _sources(folders: tuple[str, ...]) -> list[str]:
    return [path.read_text(encoding="utf-8")
            for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))]


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, list[str], list[str]]]:
    """(name, positional parameters, defaulted parameters) of each public function
    and method; a method's positional parameters leave out ``self`` or ``cls``."""
    found = []
    for node in _public(tree.body):
        functions = ([(node.name, node, 0)] if not isinstance(node, ast.ClassDef) else
                     [(f"{node.name}.{m.name}", m, 1) for m in _public(node.body)])
        for name, fn, bound in functions:
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][bound:]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if defaulted:
                found.append((name, positional, defaulted))
    return found


def _uses(sources: list[str]) -> dict[str, list[ast.Call | None]]:
    """The calls of each name, bare; None for a use as a value rather than a call."""
    uses: dict[str, list] = {}
    for tree in map(ast.parse, sources):
        nodes = list(ast.walk(tree))
        calls = [node for node in nodes if isinstance(node, ast.Call)]
        callees = {id(call.func) for call in calls}
        bound = {node.id for node in nodes if isinstance(node, ast.Name)
                 and not isinstance(node.ctx, ast.Load)}
        bound |= {node.arg for node in nodes if isinstance(node, ast.arg)}
        for call in calls:
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            uses.setdefault(name, []).append(call)
        for node in nodes:
            if id(node) in callees or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name)
                                                   and node.id not in bound):
                uses.setdefault(getattr(node, "id", None) or node.attr, []).append(None)
    return uses


def _passes(call: ast.Call | None, positional: list[str], parameter: str) -> bool:
    if call is None or any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return parameter in positional and (positional.index(parameter) < len(call.args) or any(
        isinstance(a, ast.Starred) for a in call.args))


def _unset_parameters(definitions: dict[str, list], sources: list[str]) -> list[str]:
    uses = _uses(sources)
    return [f"{module}.{name}({parameter})" for module, found in definitions.items()
            for name, positional, defaulted in found for parameter in defaulted
            if not any(_passes(call, positional, parameter)
                       for call in uses.get(name.rpartition(".")[2], []))]


def test_every_public_definition_is_referenced():
    sources = _sources(("src", "tests", "demos"))
    definitions = {module.stem: _public_definitions(module)
                   for module in sorted(PACKAGE.glob("*.py"))}
    unused = _unused(definitions, sources)
    assert not unused, f"public definitions referenced nowhere: {unused}"


def test_a_name_only_in_prose_is_unused():
    src = ('def used():\n    """Calls nothing; mentions prose_only."""\n\n'
           "def prose_only():  # prose_only in a comment\n    return 'prose_only'\n\n"
           "used()\nimport m.via_import\nfrom m import by_alias as other\nx = m.attr_use\n")
    names = ["used", "prose_only", "via_import", "by_alias", "C.attr_use", "C.in_prose"]
    assert _unused({"probe": names}, [src]) == ["probe.prose_only", "probe.C.in_prose"]


def test_every_defaulted_parameter_is_set():
    definitions = {module.stem: _defaulted_parameters(ast.parse(module.read_text(encoding="utf-8")))
                   for module in sorted(PACKAGE.glob("*.py"))}
    unset = _unset_parameters(definitions, _sources(("src", "tests", "demos", "bench")))
    assert not unset, f"public parameters that no caller sets: {unset}"


def test_a_parameter_no_call_gives_is_unset():
    src = ("def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
           "class C:\n    def m(self, x=0, y=0):\n        pass\n\n"
           "def g(p=0, q=0):\n    pass\n\n"
           "def h(r=0):\n    pass\n\n"
           "def k(s=0, t=0):\n    pass\n\n"
           "def _private(u=0):\n    pass\n\n"
           "def use(k):  # f(d=1) in a comment\n    return k, 'f(0, d=1)'\n\n"
           "f(0, 1)\nmod.f(0, c=2)\nC().m(1)\ng(**kw)\ncallbacks = [h]\nk(*args)\n")
    definitions = {"probe": _defaulted_parameters(ast.parse(src))}
    assert _unset_parameters(definitions, [src]) == ["probe.f(d)", "probe.C.m(y)"]


def _unused_imports(src: str) -> list[str]:
    """Names that ``src`` imports (``__future__`` aside) and never refers to in its code."""
    tree = ast.parse(src)
    imported = [alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    referred = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in referred]


def test_every_test_import_is_referenced():
    unused = {str(path.relative_to(ROOT)): names for path in sorted((ROOT / "tests").rglob("*.py"))
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert not unused, f"imported and never referenced: {unused}"


def test_an_import_only_in_prose_is_unused():
    src = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
           "from m import a, b as c, d, e\n\n"
           "def f():\n    'Uses d.'\n    return os.sep, j.dumps, a  # e\n")
    assert _unused_imports(src) == ["c", "d", "e"]
