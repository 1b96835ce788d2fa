"""Helpers for tests that run the command line in process, or qccp and its scripts in a subprocess."""

import os
from pathlib import Path

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
