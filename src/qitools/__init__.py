"""Finite-dimensional quantum information toolkit.

Submodules are imported on first access (PEP 562), so ``import qitools``
loads none of them and each CLI subcommand loads only what it runs.
"""

import importlib

__all__ = [
    "ATOL",
    "channels",
    "discrimination",
    "entanglement",
    "instruments",
    "linalg",
    "observables",
    "protocols",
    "rand",
    "states",
]


def __getattr__(name: str):
    if name == "ATOL":
        return importlib.import_module(".linalg", __name__).ATOL
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
