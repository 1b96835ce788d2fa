"""Smoke runs of the scripts under ``scripts/`` as subprocesses."""

import subprocess
import sys

import pytest

from support import ROOT, subprocess_env


def run_script(name: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == code, proc.stderr
    return proc


def test_detection_sweep():
    lines = run_script("detection_sweep.py", "--n-target", "200", "--steps", "2").stdout.splitlines()
    assert lines[0].startswith("# task B, N=5")
    assert lines[1].split("\t") == ["eta", "p_simulated", "sigma", "p_predicted", "sigma_over_bound"]
    rows = [line.split("\t") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0.500", "1.000"]
    for eta, p_sim, sigma, p_pred, _ in rows:
        assert abs(float(p_sim) - float(p_pred)) < 4 * float(sigma) + 1e-4


@pytest.mark.parametrize("flag, value", [
    ("--steps", "0"), ("--parties", "0"), ("--n-target", "0"), ("--seed", "-1"),
    ("--visibility", "2"), ("--visibility", "nan"),
])
def test_detection_sweep_refuses_invalid_counts(flag, value):
    proc = run_script("detection_sweep.py", flag, value, code=2)
    assert proc.stderr.startswith("usage:") and f"argument {flag}" in proc.stderr
    assert not proc.stdout
