"""Acceptance gate: every headline claim at its stated tolerance.

One test per criterion; each prints a PASS line (visible with ``pytest -s``)
after its assertions hold.  Stochastic criteria pin their seeds so the whole
gate is deterministic.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as sps

from qccp import (
    PRESETS,
    CommTree,
    RandomStream,
    Task,
    brute_force_bound_a,
    classical_bound,
    check_domain,
    coordinate_ascent_b,
    decompose_batch,
    density_b,
    enumerate_a,
    exact_outcome_a,
    exhaust_product_strategies_a,
    final_state,
    gamma_from_visibility,
    optimize_strategy_b,
    optimize_window,
    predicted_success,
    quantum_fidelity,
    random_strategy_b,
    run_quantum_batch,
    sample_a,
    sample_b,
    sigma_violation,
    simulate_experiment,
    success_stats,
    task_value_batch,
)
from qccp.experiment import ExperimentParams
from qccp.sampling import _propose_b

from oracles import binned_abs_cos_density, quadrature_nd
from support import subprocess_env

TWO_PI = 2.0 * math.pi
BASE_SEED = 7


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_closed_form_bounds():
    assert abs(classical_bound(Task.A, 5).success - 0.625) < 1e-4
    p_b = classical_bound(Task.B, 5).success
    assert abs(p_b - (1.0 + (2.0 / math.pi) ** 4) / 2.0) < 1e-4
    assert abs(p_b - 0.5821274) < 1e-4
    assert quantum_fidelity(Task.A, 5) == 1.0
    assert abs(quantum_fidelity(Task.B, 5) - math.pi / 4.0) < 1e-12
    report(1, "closed-form bounds")


def test_criterion_02_certified_reduction():
    start = time.monotonic()
    assert brute_force_bound_a(CommTree.chain(2)).max_fidelity == 1.0
    assert brute_force_bound_a(CommTree.chain(3)).max_fidelity == 0.5
    star = brute_force_bound_a(CommTree.star(3))
    assert star.max_fidelity == 0.5
    assert star.max_fidelity == classical_bound(Task.A, 3).fidelity
    assert time.monotonic() - start < 300.0
    report(2, "certified reduction over all general protocols")


def test_criterion_03_product_strategy_exhaustion():
    fids, best = exhaust_product_strategies_a(5)
    assert len(fids) == 4**5
    assert fids[best] == 0.25
    assert np.all(fids <= 0.25)
    report(3, "product-strategy exhaustion at N=5")


def test_criterion_04_task_b_optimization():
    rng = RandomStream(BASE_SEED, 4).generator()
    for n in (2, 3, 4, 5):
        best = 0.0
        for _ in range(20):
            _, trace = coordinate_ascent_b(random_strategy_b(n, 64, rng))
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
            best = max(best, trace[-1])
        target = classical_bound(Task.B, n).fidelity
        assert best >= 0.985 * target
        assert best <= target + 1e-12
        # the restart wrapper reports the same optimum from the same stream
        wrapped = optimize_strategy_b(
            n, cells=64, restarts=20, rng=RandomStream(BASE_SEED, 4).generator()
        )
        assert wrapped.fidelity <= target + 1e-12
    report(4, "coordinate ascent within 1.5% of (2/pi)^(N-1), all traces monotone")


def test_criterion_05_quantum_exactness_task_a():
    checked = 0
    for n in range(1, 7):
        tuples, _ = enumerate_a(n)
        assert np.array_equal(exact_outcome_a(tuples), task_value_batch(Task.A, tuples))
        checked += len(tuples)
    assert checked == sum(4**n // 2 for n in range(1, 7))  # includes all 512 at N=5
    report(5, "task A pipeline integer-exact on every promised tuple")


def test_criterion_06_quantum_task_b_monte_carlo():
    rng = RandomStream(BASE_SEED, 1).generator()
    draws = sample_b(5, rng, size=1_000_000)
    answers = run_quantum_batch(Task.B, draws, 1.0, rng)
    p_hat = float(np.mean(answers == task_value_batch(Task.B, draws)))
    sigma = math.sqrt(0.89270 * (1.0 - 0.89270) / 1_000_000)
    assert sigma == pytest.approx(0.00031, abs=2e-5)
    assert abs(p_hat - 0.89270) < 3.0 * sigma
    report(6, "task B quantum success 0.8927 over 1e6 sampled inputs")


def _run_preset(label: str, stream: int):
    params = PRESETS[label]
    records = simulate_experiment(params, RandomStream(BASE_SEED, stream).generator())
    return success_stats(records), classical_bound(params.task, params.n_parties)


def test_criterion_07_experiment_reproduction_a():
    stats, bound = _run_preset("A", 2)
    assert stats.n == 6692
    assert abs(stats.p_hat - 0.711) < 0.0166  # 3 sigma band
    assert abs(stats.sigma - 0.0055) < 0.1 * 0.0055
    violation = sigma_violation(stats, bound.success)
    assert 14.0 <= violation <= 21.0
    report(7, "experiment A: p ~ 0.711, ~17 sigma violation")


def test_criterion_08_experiment_reproduction_b():
    stats, bound = _run_preset("B", 3)
    assert stats.n == 18169
    assert abs(stats.p_hat - 0.669) < 3.0 * 0.0035
    assert abs(stats.sigma - 0.0035) < 0.1 * 0.0035
    violation = sigma_violation(stats, bound.success)
    assert 25.0 <= violation <= 33.0
    report(8, "experiment B: p ~ 0.669, ~29 sigma violation")


def test_criterion_09_window_optimization():
    choice = optimize_window(5000.0)
    assert choice.window == 200e-6
    assert abs(choice.accept_prob - math.exp(-1.0)) < 1e-12
    report(9, "collection window optimum 200 us, acceptance 1/e")


class TestCriterion10PropertySuite:
    def test_decomposition_identity_exhaustive_a(self):
        for n in range(1, 7):
            tuples, _ = enumerate_a(n)
            x, y = decompose_batch(Task.A, tuples)
            reduced = task_value_batch(Task.A, check_domain(Task.A, x, reduced=True))
            assert np.array_equal(task_value_batch(Task.A, tuples), np.prod(y, axis=1) * reduced)

    def test_decomposition_identity_random_b(self):
        rng = RandomStream(BASE_SEED, 5).generator()
        for n in range(1, 7):
            rows = rng.uniform(0.0, TWO_PI, size=(17_000, n))
            x, y = decompose_batch(Task.B, rows)
            reduced = task_value_batch(Task.B, check_domain(Task.B, x, reduced=True))
            assert np.array_equal(task_value_batch(Task.B, rows), np.prod(y, axis=1) * reduced)

    @pytest.mark.parametrize("n,k", [(1, 4096), (2, 512), (3, 128)])
    def test_density_normalization(self, n, k):
        total = quadrature_nd(density_b, 0.0, TWO_PI, n, k)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_sampler_chi_square_a(self):
        rng = RandomStream(BASE_SEED, 6).generator()
        draws = sample_a(5, rng, size=1_000_000)
        counts = np.bincount(draws @ (4 ** np.arange(5)), minlength=4**5)
        occupied = counts[counts > 0]
        assert len(occupied) == 512
        chi2 = float(((occupied - 1_000_000 / 512) ** 2 / (1_000_000 / 512)).sum())
        assert chi2 < sps.chi2.ppf(0.99, 511)

    def test_sampler_chi_square_b(self):
        rng = RandomStream(BASE_SEED, 7).generator()
        draws = sample_b(1, rng, size=200_000).ravel()
        edges = np.linspace(0.0, TWO_PI, 33)
        expected = binned_abs_cos_density(edges) * len(draws)
        counts, _ = np.histogram(draws, bins=edges)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < sps.chi2.ppf(0.99, 31)

    def test_sampler_acceptance_rate(self):
        rng = RandomStream(BASE_SEED, 8).generator()
        accepted = len(_propose_b(3, rng, 1_000_000))
        rate = accepted / 1_000_000
        sigma = math.sqrt((2 / math.pi) * (1 - 2 / math.pi) / 1_000_000)
        assert abs(rate - 2.0 / math.pi) < 3.0 * sigma

    def test_unitarity(self):
        rng = RandomStream(BASE_SEED, 9).generator()
        state = final_state(Task.B, rng.uniform(0.0, TWO_PI, size=(1, 1_000_000)))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("vis", [0.7, 0.9, 1.0])
    def test_simulation_matches_closed_form(self, eta, vis):
        params = ExperimentParams(Task.A, 5, 5000.0, 200e-6, eta, vis, 10_000)
        stream = int(eta * 100 + vis * 10)
        records = simulate_experiment(params, RandomStream(6, stream).generator())
        stats = success_stats(records)
        predicted = predicted_success(eta, gamma_from_visibility(Task.A, vis))
        assert abs(stats.p_hat - predicted) < 3.0 * math.sqrt(
            predicted * (1.0 - predicted) / 10_000
        )

    def test_report(self):
        report(10, "property suite")


def test_criterion_11_reproducibility(tmp_path):
    import json

    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "qccp.cli", "reproduce",
                "--seed", str(BASE_SEED), "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["schema"] == "qccp-reproduce-v1"
    assert payload["all_passed"] is True
    assert all(check["passed"] for check in payload["checks"])
    report(11, "reproduce command is byte-identical and green")
