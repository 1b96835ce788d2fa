"""Helpers for tests that run qccp or its scripts in a subprocess."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict[str, str]:
    """The current environment with the repo's ``src`` first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only its own process, so a child
    ``python -m qccp.cli`` needs the path passed on explicitly.
    """
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
