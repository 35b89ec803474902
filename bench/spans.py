"""Span recorder that instruments qitools from outside the package.

``SpanRecorder.install()`` replaces every public function of every loaded
``qitools`` module, the ``__post_init__`` of every public class, and the
``numpy.linalg`` decompositions that the library calls, with a wrapper that
records one span (name, start, end, parent) per call.  The wrapper is put
into every ``qitools`` namespace that holds a reference to the function, so
``states.eigh`` and ``linalg.eigh`` share one wrapper.  ``uninstall()`` puts
every original back.  No file under ``src/`` changes.

A span's layer is the module that defines the function; the decompositions
form the pseudo-layer ``numpy_linalg``.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

NUMPY_LINALG = ("eigh", "eigvalsh", "eigvals", "svd", "qr", "norm", "pinv", "det")

LAYERS = (
    "linalg",
    "numpy_linalg",
    "rand",
    "states",
    "observables",
    "discrimination",
    "channels",
    "instruments",
    "entanglement",
    "protocols",
    "cli",
)


def _qitools_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qitools" or name.startswith("qitools."))
    ]


def _is_public_routine(obj) -> bool:
    """Functions (lru_cache wrappers included) defined in a qitools module."""
    module = getattr(obj, "__module__", None) or ""
    return (
        callable(obj)
        and not inspect.isclass(obj)
        and module.startswith("qitools.")
        and not getattr(obj, "__name__", "_").startswith("_")
    )


def _is_public_class(obj) -> bool:
    return (
        inspect.isclass(obj)
        and obj.__module__.startswith("qitools.")
        and not obj.__name__.startswith("_")
        and "__post_init__" in vars(obj)
    )


class SpanRecorder:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        failed, stack, clock = self.failed, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap qitools' public functions and classes, and numpy.linalg."""
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        modules = _qitools_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for obj in vars(mod).values():
                if _is_public_routine(obj) and id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        classes = {
            id(obj): obj for mod in modules for obj in vars(mod).values() if _is_public_class(obj)
        }
        for cls in classes.values():
            layer = cls.__module__.rsplit(".", 1)[-1]
            span_name = f"{layer}.{cls.__name__}.__post_init__"
            self._patch(cls, "__post_init__", self._wrap(vars(cls)["__post_init__"], span_name))
        for attr in NUMPY_LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrap(fn, f"numpy_linalg.{attr}"))

    def uninstall(self) -> None:
        """Put back every attribute that install() replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int32).copy(),
        }

    def save(self, path: Path, extra: dict | None = None) -> None:
        """Write every span, the name table and ``extra`` to one .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            extra=np.array(json.dumps(extra or {})),
            **self.arrays(),
        )


def summarize(names, name, parent, start, end, failed) -> dict:
    """Per-layer totals and per-span-name inclusive times of recorded spans.

    Returns ``{"layers": {layer: {"calls", "self_s", "failed"}},
    "inclusive_s": {span name: seconds}}``.
    """
    names = [str(n) for n in names]
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    layer_index = {layer: i for i, layer in enumerate(LAYERS)}
    name_layer = np.array([layer_index[n.split(".", 1)[0]] for n in names], dtype=np.int64)
    span_layer = name_layer[name] if len(name) else np.zeros(0, dtype=np.int64)
    n_layers = len(LAYERS)
    calls = np.bincount(span_layer, minlength=n_layers)
    self_s = np.bincount(span_layer, weights=own, minlength=n_layers)
    fails = np.bincount(span_layer[failed], minlength=n_layers)
    inclusive = np.bincount(name, weights=dur, minlength=len(names))
    return {
        "layers": {
            layer: {"calls": int(calls[i]), "self_s": float(self_s[i]), "failed": int(fails[i])}
            for i, layer in enumerate(LAYERS)
        },
        "inclusive_s": {n: float(inclusive[i]) for i, n in enumerate(names)},
    }


def summarize_recorder(rec: SpanRecorder) -> dict:
    return summarize(rec.names, **rec.arrays())


def summarize_file(path: Path) -> tuple[dict, dict]:
    """(summary, extra) of a span file written by ``SpanRecorder.save``."""
    with np.load(path) as data:
        extra = json.loads(str(data["extra"]))
        summary = summarize(
            data["names"], data["name"], data["parent"], data["start"], data["end"], data["failed"]
        )
    return summary, extra


def merge(total: dict, part: dict) -> None:
    """Add the counts and times of summary ``part`` into ``total``."""
    for layer, stats in part["layers"].items():
        into = total["layers"].setdefault(layer, {"calls": 0, "self_s": 0.0, "failed": 0})
        for key, value in stats.items():
            into[key] += value
    for name, seconds in part["inclusive_s"].items():
        total["inclusive_s"][name] = total["inclusive_s"].get(name, 0.0) + seconds
