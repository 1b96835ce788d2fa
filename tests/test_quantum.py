import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccp import (
    PromiseViolationError,
    RandomStream,
    Task,
    density_b,
    enumerate_a,
    exact_outcome_a,
    final_state,
    measure_probabilities,
    plus_probability,
    quantum_fidelity,
    run_quantum,
    run_quantum_batch,
    sample_b,
    task_value,
    task_value_batch,
)
from qccp import tasks

from oracles import answers_b, sample_b_uniform, target_b

TWO_PI = 2.0 * math.pi
INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestStatesAndGates:
    def test_initial_state(self):
        # a zero digit leaves the initial state (|0> + |1>)/sqrt(2)
        state = final_state(Task.A, [[0]])
        assert state.tolist() == [[INV_SQRT2, INV_SQRT2]]
        assert abs(np.linalg.norm(state) - 1.0) < 1e-15

    def test_initial_state_measures_plus(self):
        assert measure_probabilities(final_state(Task.A, [[0]])).tolist() == [[1.0, 0.0]]

    def test_quarter_turn_two_is_exact_sign_flip(self):
        state = final_state(Task.A, [[2]])
        assert state[0, 1] == -INV_SQRT2
        assert state[0, 0] == INV_SQRT2

    def test_zero_digit_is_identity(self):
        digits = np.arange(4)[:, None]
        with_zero = np.hstack([digits, np.zeros_like(digits)])
        assert np.array_equal(final_state(Task.A, with_zero), final_state(Task.A, digits))

    def test_pi_phase_flips_within_tolerance(self):
        state = final_state(Task.B, [[math.pi]])
        assert abs(state[0, 1] - (-INV_SQRT2)) < 1e-12

    def test_gate_domain_checks(self):
        with pytest.raises(ValueError):
            final_state(Task.A, [[4]])
        with pytest.raises(ValueError):
            final_state(Task.B, [[TWO_PI]])

    def test_measure_rejects_unnormalised_states(self):
        with pytest.raises(ValueError, match="norm"):
            measure_probabilities([[1.0, 1.0]])
        with pytest.raises(ValueError, match="norm"):
            measure_probabilities([[INV_SQRT2, INV_SQRT2], [math.nan, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            measure_probabilities([INV_SQRT2, INV_SQRT2])

    def test_measure_examples(self):
        # single party holding the whole phase sum
        p_plus, p_minus = measure_probabilities(final_state(Task.B, [[math.pi / 3]]))[0]
        assert p_plus == pytest.approx(0.75, abs=1e-12)
        state = final_state(Task.B, [[math.pi / 4, math.pi / 4]])
        assert measure_probabilities(state)[0] == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = measure_probabilities(final_state(Task.B, rng.uniform(0, TWO_PI, size=(200, 4))))
        assert probs.sum(axis=1) == pytest.approx(np.ones(200), abs=1e-12)


class TestClosedForm:
    """plus_probability, the experiment engine's answer probability, is the amplitude model."""

    def test_task_a_is_bit_equal(self):
        for n in range(1, 7):
            tuples, _ = enumerate_a(n)
            probs = measure_probabilities(final_state(Task.A, tuples))
            assert np.array_equal(plus_probability(Task.A, tuples, 1.0), probs[:, 0])

    def test_task_b_within_1e12(self):
        rng = np.random.default_rng(5)
        checked = 0
        for n in range(1, 7):
            rows = rng.uniform(0.0, TWO_PI, size=(17_000, n))
            probs = measure_probabilities(final_state(Task.B, rows))
            assert np.abs(plus_probability(Task.B, rows, 1.0) - probs[:, 0]).max() < 1e-12
            checked += len(rows)
        assert checked >= 100_000


class TestTaskAExactness:
    def test_every_promised_tuple_up_to_n6(self):
        # integer path: zero floating point, zero errors
        for n in range(1, 7):
            tuples, _ = enumerate_a(n)
            truths = task_value_batch(Task.A, tuples)
            assert np.array_equal(exact_outcome_a(tuples), truths)

    def test_float_pipeline_is_still_exact(self):
        # unit-phase multiplications only swap and negate components, so the
        # measurement distribution on promised tuples is exactly (1,0)/(0,1)
        tuples, _ = enumerate_a(5)
        probs = measure_probabilities(final_state(Task.A, tuples))
        plus = task_value_batch(Task.A, tuples)[:, None] == 1
        assert np.array_equal(probs, np.where(plus, [1.0, 0.0], [0.0, 1.0]))

    def test_odd_sum_rejected(self):
        with pytest.raises(PromiseViolationError):
            exact_outcome_a([[1, 0]])

    def test_digit_domain(self):
        with pytest.raises(ValueError):
            exact_outcome_a([[5]])


class TestUnitarityAndOrder:
    def test_norm_preserved_over_a_million_compositions(self):
        rng = np.random.default_rng(1)
        state = final_state(Task.B, rng.uniform(0.0, TWO_PI, size=(1, 1_000_000)))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9

    def test_party_order_is_irrelevant_a(self):
        rng = np.random.default_rng(2)
        tuples, _ = enumerate_a(5)
        rows = tuples[::29]
        base = measure_probabilities(final_state(Task.A, rows))
        perm = measure_probabilities(final_state(Task.A, rng.permuted(rows, axis=1)))
        assert np.array_equal(perm, base)

    def test_party_order_is_irrelevant_b(self):
        rng = np.random.default_rng(3)
        rows, perms = np.empty((40, 5)), np.empty((40, 5))
        for i in range(40):
            rows[i] = rng.uniform(0.0, TWO_PI, size=5)
            perms[i] = rng.permutation(rows[i])
        base = measure_probabilities(final_state(Task.B, rows))
        perm = measure_probabilities(final_state(Task.B, perms))
        assert perm == pytest.approx(base, abs=1e-12)

    def test_budget_one_gate_per_party_one_measurement(self):
        # each party's gate multiplies the |1> amplitude by its own factor u_k,
        # read off its one-party state; nothing else acts on the qubit
        rng = np.random.default_rng(6)
        for task, rows, tol in (
            (Task.A, enumerate_a(5)[0], 0.0),
            (Task.B, rng.uniform(0.0, TWO_PI, size=(500, 5)), 1e-12),
        ):
            single = final_state(task, rows.reshape(-1, 1))
            factors = (single[:, 1] / single[:, 0]).reshape(rows.shape)
            state = final_state(task, rows)
            assert np.abs(state[:, 1] - state[:, 0] * factors.prod(axis=1)).max() <= tol


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

    @pytest.mark.parametrize("task", [Task.A, Task.B])
    @pytest.mark.parametrize("visibility", [1.5, -0.1, math.nan])
    def test_invalid_visibility_draws_nothing(self, task, visibility):
        rng = RandomStream(0, 0).generator()
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="visibility"):
            run_quantum_batch(task, np.zeros((3, 2), dtype=int), visibility, rng)
        assert rng.bit_generator.state == before

    def test_settling_every_row_changes_no_answer(self, monkeypatch):
        inputs = np.random.default_rng(23).uniform(0.0, TWO_PI, size=(50_000, 5))
        want = answers_b(inputs, 0.8, RandomStream(59, 0).generator()).tobytes()
        got = []
        for guard in (tasks.COS_GUARD, 4.0):  # 4 exceeds every acceptance margin
            monkeypatch.setattr(tasks, "COS_GUARD", guard)
            answers = run_quantum_batch(Task.B, inputs, 0.8, RandomStream(59, 0).generator())
            got.append(answers.tobytes())
        assert got[0] == got[1] == want

    def test_answers_on_the_edge_take_the_float64_decision(self):
        # each row's sum is arccos(2u - 1) for its own uniform u, so P(+) = (1 + cos)/2
        # lands on u, within rounding: the float32 cosine alone would get about half wrong
        rng = RandomStream(53, 0).generator()
        oracle = copy.deepcopy(rng)
        inputs = np.arccos(2.0 * copy.deepcopy(rng).random(50_000) - 1.0)[:, None]
        got = run_quantum_batch(Task.B, inputs, 1.0, rng)
        assert got.tobytes() == answers_b(inputs, 1.0, oracle).tobytes()
        assert rng.bit_generator.state == oracle.bit_generator.state

    @given(st.integers(1, 8))
    def test_fidelity_is_n_independent(self, n):
        assert quantum_fidelity(Task.A, n) == 1.0
        assert quantum_fidelity(Task.B, n) == math.pi / 4.0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32), visibility=st.floats(0.0, 1.0))
def test_task_b_batch_path_matches_the_float64_oracles(n, seed, visibility):
    # 10^4 rows span two row blocks
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    inputs, want = sample_b(n, rng, 10_000), sample_b_uniform(n, oracle, 10_000)
    assert inputs.tobytes() == want.tobytes()
    answers = run_quantum_batch(Task.B, inputs, visibility, rng)
    assert answers.tobytes() == answers_b(want, visibility, oracle).tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert task_value_batch(Task.B, inputs).tobytes() == target_b(want).tobytes()


class TestFidelityIntegral:
    """Quadrature of density * truth * (P+ - P-) reproduces pi/4 for task B."""

    def _expectation(self, rows) -> np.ndarray:
        probs = measure_probabilities(final_state(Task.B, rows))
        return probs[:, 0] - probs[:, 1]

    @pytest.mark.parametrize("n,k", [(1, 4096), (2, 160)])
    def test_pipeline_quadrature_small_n(self, n, k):
        xs = (np.arange(k) + 0.5) * TWO_PI / k
        grid = np.stack(np.meshgrid(*([xs] * n), indexing="ij"), axis=-1).reshape(-1, n)
        c = np.cos(grid.sum(axis=1))
        keep = np.abs(c) >= 1e-9
        truth = np.where(c[keep] > 0, 1.0, -1.0)
        terms = density_b(grid[keep]) * truth * self._expectation(grid[keep])
        total = terms.sum() * (TWO_PI / k) ** n
        assert total == pytest.approx(math.pi / 4.0, abs=1e-3)

    def test_vectorised_quadrature_n3(self):
        # pipeline expectation equals cos(sum) (spot-checked), then integrate
        rng = np.random.default_rng(4)
        rows = rng.uniform(0.0, TWO_PI, size=(100, 3))
        assert self._expectation(rows) == pytest.approx(np.cos(rows.sum(axis=1)), abs=1e-12)
        k = 64
        xs = (np.arange(k) + 0.5) * TWO_PI / k
        grids = np.meshgrid(xs, xs, xs, indexing="ij")
        u = sum(grids)
        integrand = (
            np.abs(np.cos(u)) / (4.0 * TWO_PI**2) * np.sign(np.cos(u)) * np.cos(u)
        )
        total = float(integrand.sum() * (TWO_PI / k) ** 3)
        assert total == pytest.approx(math.pi / 4.0, abs=1e-3)
