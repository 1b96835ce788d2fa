import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qccp.quantum
from qccp import (
    PhaseZ4,
    PromiseViolationError,
    QubitState,
    RandomStream,
    Task,
    density_b,
    enumerate_a,
    exact_outcome_a,
    final_state,
    initial_state,
    measure_probabilities,
    phase_encode,
    quantum_fidelity,
    run_quantum,
    run_quantum_batch,
    sample_b,
    task_value,
    task_value_batch,
)

TWO_PI = 2.0 * math.pi
INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestStatesAndGates:
    def test_initial_state(self):
        state = initial_state()
        assert state.amp0 == state.amp1 == INV_SQRT2
        assert abs(state.norm() - 1.0) < 1e-15

    def test_initial_state_measures_plus(self):
        assert measure_probabilities(initial_state()) == (1.0, 0.0)

    def test_quarter_turn_two_is_exact_sign_flip(self):
        state = phase_encode(initial_state(), Task.A, 2)
        assert state.amp1 == -INV_SQRT2
        assert state.amp0 == INV_SQRT2

    def test_zero_digit_is_identity(self):
        state = phase_encode(initial_state(), Task.A, 0)
        assert state == initial_state()

    def test_pi_phase_flips_within_tolerance(self):
        state = phase_encode(initial_state(), Task.B, math.pi)
        assert abs(state.amp1 - (-INV_SQRT2)) < 1e-12

    def test_gate_domain_checks(self):
        with pytest.raises(ValueError):
            phase_encode(initial_state(), Task.A, 4)
        with pytest.raises(ValueError):
            phase_encode(initial_state(), Task.B, TWO_PI)

    def test_measure_rejects_unnormalised_states(self):
        with pytest.raises(ValueError):
            measure_probabilities(QubitState(1.0, 1.0))

    def test_measure_examples(self):
        # single party holding the whole phase sum
        p_plus, p_minus = measure_probabilities(final_state(Task.B, (math.pi / 3,)))
        assert p_plus == pytest.approx(0.75, abs=1e-12)
        state = final_state(Task.B, (math.pi / 4, math.pi / 4))
        assert measure_probabilities(state) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            state = final_state(Task.B, rng.uniform(0, TWO_PI, size=4))
            p_plus, p_minus = measure_probabilities(state)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


class TestPhaseZ4:
    def test_wraps_mod_four(self):
        assert PhaseZ4(7).quarter_turns == 3
        assert PhaseZ4(-1).quarter_turns == 3

    def test_advanced_accumulates(self):
        assert PhaseZ4(3).advanced(3).quarter_turns == 2

    def test_units_are_exact(self):
        assert [PhaseZ4(k).unit() for k in range(4)] == [1, 1j, -1, -1j]

    def test_sign_of_even_phases(self):
        assert PhaseZ4(0).to_sign() == 1
        assert PhaseZ4(2).to_sign() == -1
        with pytest.raises(PromiseViolationError):
            PhaseZ4(1).to_sign()


class TestTaskAExactness:
    def test_every_promised_tuple_up_to_n6(self):
        # integer path: zero floating point, zero errors
        for n in range(1, 7):
            tuples, _ = enumerate_a(n)
            truths = task_value_batch(Task.A, tuples)
            for row, truth in zip(tuples.tolist(), truths):
                assert exact_outcome_a(row) == truth

    def test_float_pipeline_is_still_exact(self):
        # unit-phase multiplications only swap and negate components, so the
        # measurement distribution on promised tuples is exactly (1,0)/(0,1)
        tuples, _ = enumerate_a(5)
        for row in tuples.tolist():
            probs = measure_probabilities(final_state(Task.A, row))
            want = (1.0, 0.0) if task_value(Task.A, row) == 1 else (0.0, 1.0)
            assert probs == want

    def test_odd_sum_rejected(self):
        with pytest.raises(PromiseViolationError):
            exact_outcome_a((1, 0))

    def test_digit_domain(self):
        with pytest.raises(ValueError):
            exact_outcome_a((5,))


class TestUnitarityAndOrder:
    def test_norm_preserved_over_a_million_compositions(self):
        rng = np.random.default_rng(1)
        state = initial_state()
        for phi in rng.uniform(0.0, TWO_PI, size=1_000_000):
            state = phase_encode(state, Task.B, phi)
        assert abs(state.norm() - 1.0) < 1e-9

    def test_party_order_is_irrelevant_a(self):
        rng = np.random.default_rng(2)
        tuples, _ = enumerate_a(5)
        for row in tuples[::29].tolist():
            base = measure_probabilities(final_state(Task.A, row))
            perm = rng.permutation(row).tolist()
            assert measure_probabilities(final_state(Task.A, perm)) == base

    def test_party_order_is_irrelevant_b(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            row = rng.uniform(0.0, TWO_PI, size=5)
            base = measure_probabilities(final_state(Task.B, row))
            perm = measure_probabilities(final_state(Task.B, rng.permutation(row)))
            assert perm == pytest.approx(base, abs=1e-12)

    def test_budget_one_gate_per_party_one_measurement(self, monkeypatch):
        calls = {"encode": 0}
        real = qccp.quantum.phase_encode

        def counting(state, task, value):
            calls["encode"] += 1
            return real(state, task, value)

        monkeypatch.setattr(qccp.quantum, "phase_encode", counting)
        final_state(Task.A, (0, 2, 2, 0, 0))
        assert calls["encode"] == 5


class TestRunQuantum:
    def test_ideal_task_a_is_deterministic(self):
        rng = RandomStream(0, 0).generator()
        for n in (1, 3, 5):
            tuples, _ = enumerate_a(n)
            for row in tuples.tolist():
                assert run_quantum(Task.A, row, 1.0, rng) == task_value(Task.A, row)

    def test_batch_matches_truth_at_full_visibility(self):
        rng = RandomStream(1, 0).generator()
        tuples, _ = enumerate_a(6)
        answers = run_quantum_batch(Task.A, tuples, 1.0, rng)
        assert np.array_equal(answers, task_value_batch(Task.A, tuples))

    def test_ideal_task_b_success_rate(self):
        rng = RandomStream(2, 0).generator()
        draws = sample_b(5, rng, size=1_000_000)
        answers = run_quantum_batch(Task.B, draws, 1.0, rng)
        p_hat = float(np.mean(answers == task_value_batch(Task.B, draws)))
        p_q = (1.0 + math.pi / 4.0) / 2.0
        assert abs(p_hat - p_q) < 3.0 * math.sqrt(p_q * (1 - p_q) / 1_000_000)

    def test_zero_visibility_is_a_fair_coin(self):
        rng = RandomStream(3, 0).generator()
        draws = sample_b(2, rng, size=100_000)
        answers = run_quantum_batch(Task.B, draws, 0.0, rng)
        p_hat = float(np.mean(answers == task_value_batch(Task.B, draws)))
        assert abs(p_hat - 0.5) < 3.0 * math.sqrt(0.25 / 100_000)
        tuples, _ = enumerate_a(4)
        answers_a = run_quantum_batch(Task.A, np.tile(tuples, (500, 1)), 0.0, rng)
        truth_a = task_value_batch(Task.A, np.tile(tuples, (500, 1)))
        p_hat_a = float(np.mean(answers_a == truth_a))
        assert abs(p_hat_a - 0.5) < 3.0 * math.sqrt(0.25 / len(answers_a))

    def test_visibility_domain(self):
        with pytest.raises(ValueError):
            run_quantum(Task.A, (0, 0), 1.5, RandomStream(0, 0).generator())
        with pytest.raises(ValueError):
            run_quantum_batch(Task.A, np.zeros((1, 2), dtype=int), -0.1, RandomStream(0, 0).generator())

    @given(st.integers(1, 8))
    def test_fidelity_is_n_independent(self, n):
        assert quantum_fidelity(Task.A, n) == 1.0
        assert quantum_fidelity(Task.B, n) == math.pi / 4.0


class TestFidelityIntegral:
    """Quadrature of density * truth * (P+ - P-) reproduces pi/4 for task B."""

    def _expectation(self, row) -> float:
        p_plus, p_minus = measure_probabilities(final_state(Task.B, row))
        return p_plus - p_minus

    @pytest.mark.parametrize("n,k", [(1, 4096), (2, 160)])
    def test_pipeline_quadrature_small_n(self, n, k):
        xs = (np.arange(k) + 0.5) * TWO_PI / k
        grid = np.stack(np.meshgrid(*([xs] * n), indexing="ij"), axis=-1).reshape(-1, n)
        total = 0.0
        for row, density in zip(grid, density_b(grid)):
            c = math.cos(row.sum())
            if abs(c) < 1e-9:
                continue
            truth = 1.0 if c > 0 else -1.0
            total += density * truth * self._expectation(row)
        total *= (TWO_PI / k) ** n
        assert total == pytest.approx(math.pi / 4.0, abs=1e-3)

    def test_vectorised_quadrature_n3(self):
        # pipeline expectation equals cos(sum) (spot-checked), then integrate
        rng = np.random.default_rng(4)
        for _ in range(100):
            row = rng.uniform(0.0, TWO_PI, size=3)
            assert self._expectation(row) == pytest.approx(
                math.cos(row.sum()), abs=1e-12
            )
        k = 64
        xs = (np.arange(k) + 0.5) * TWO_PI / k
        grids = np.meshgrid(xs, xs, xs, indexing="ij")
        u = sum(grids)
        integrand = (
            np.abs(np.cos(u)) / (4.0 * TWO_PI**2) * np.sign(np.cos(u)) * np.cos(u)
        )
        total = float(integrand.sum() * (TWO_PI / k) ** 3)
        assert total == pytest.approx(math.pi / 4.0, abs=1e-3)
