"""Helpers for tests that run the command line in process, or qccp and its scripts in a subprocess,
and for the tests that walk the public API."""

import dataclasses
import inspect
import os
from pathlib import Path

import numpy as np

import qccp
from qccp.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def subprocess_env() -> dict[str, str]:
    """The current environment with the repo's ``src`` first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only its own process, so a child
    ``python -m qccp.cli`` needs the path passed on explicitly.
    """
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def public_callables():
    """(name, object) for each name in ``qccp.__all__`` and each public classmethod of a class there."""
    for name in qccp.__all__:
        obj = getattr(qccp, name)
        yield name, obj
        if inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if isinstance(raw, classmethod) and not attr.startswith("_"):
                    yield f"{name}.{attr}", getattr(obj, attr)


def plain(value):
    """Arrays, dataclasses and tuples as comparable plain values, types included."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, plain(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(plain(v) for v in value)
    return type(value).__name__, value
