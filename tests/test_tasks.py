import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qccp import (
    CommTree,
    CosineTieError,
    ProductStrategyA,
    PromiseViolationError,
    Task,
    check_domain,
    compose,
    decompose_batch,
    density_b,
    enumerate_a,
    exact_outcome_a,
    final_state,
    reduced_density,
    run_protocol,
    run_quantum,
    run_quantum_batch,
    task_value,
    task_value_batch,
)

from qccp import tasks
from qccp.tasks import ROW_BLOCK, rough_cos, row_sum

from oracles import quadrature_nd, target_b, task_value_a, task_value_b

TWO_PI = 2.0 * math.pi


class TestRowSum:
    # row_sum must be bit for bit numpy's sum(axis=1): the samplers and the experiment
    # engine's replay of their acceptance test use it, the float64 oracles sum(axis=1)
    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("rows", [0, 1, 5000])
    def test_float64_equals_numpy(self, n, rows):
        rng = np.random.default_rng([n, rows])
        # magnitudes spread over 16 decades, so every addition rounds
        arr = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-8, 8, size=(rows, n))
        got = row_sum(arr)
        assert got.dtype == np.float64 and got.shape == (rows,)
        assert got.tobytes() == arr.sum(axis=1).tobytes()

    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("rows", [0, 1, 5000])
    def test_int64_equals_numpy(self, n, rows):
        arr = np.random.default_rng([n, rows]).integers(-(2**62), 2**62, size=(rows, n))
        got = row_sum(arr)
        assert got.dtype == np.int64
        assert got.tobytes() == arr.sum(axis=1).tobytes()

    def test_phases_and_column_views(self):
        # the callers' inputs: phases in [0, 2 pi), and a slice of the columns
        arr = np.random.default_rng(3).uniform(0.0, TWO_PI, size=(20_000, 7))
        for view in (arr, arr[:, :4], arr[:, 2:], arr[::3]):
            assert row_sum(view).tobytes() == view.sum(axis=1).tobytes()

    def test_leaves_its_input_alone(self):
        arr = np.arange(12.0).reshape(4, 3)
        row_sum(arr)
        assert arr.tolist() == np.arange(12.0).reshape(4, 3).tolist()


class TestTaskValue:
    @pytest.mark.parametrize(
        "inputs,expected",
        [
            ((0, 0, 0, 0, 0), 1),
            ((1, 1, 0, 0, 0), -1),
            ((3, 3, 2, 0, 0), 1),
            ((0,), 1),
            ((2,), -1),
        ],
    )
    def test_task_a_examples(self, inputs, expected):
        assert task_value(Task.A, inputs) == expected

    def test_task_b_example(self):
        assert task_value(Task.B, (math.pi / 4, math.pi / 8)) == 1
        assert task_value(Task.B, (math.pi / 2, math.pi / 2)) == -1

    def test_odd_sum_violates_promise(self):
        with pytest.raises(PromiseViolationError):
            task_value(Task.A, (1, 0, 0))

    def test_cosine_tie_is_an_error(self):
        with pytest.raises(CosineTieError):
            task_value(Task.B, (math.pi / 2,))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            task_value(Task.A, (4, 0))
        with pytest.raises(ValueError):
            task_value(Task.B, (-0.1,))
        with pytest.raises(ValueError):
            task_value(Task.B, (TWO_PI,))
        with pytest.raises(ValueError):
            task_value(Task.B, (math.nan,))
        with pytest.raises(ValueError):
            task_value(Task.A, ())
        with pytest.raises(ValueError, match="0..3"):
            task_value_batch(Task.A, np.array([[0, 0], [4, 0], [1, 1]]))
        with pytest.raises(ValueError, match="2\\*pi"):
            task_value_batch(Task.B, np.array([[0.5, 0.25], [0.5, TWO_PI]]))
        assert task_value_batch(Task.A, np.array([[2.0, 0.0]])).tolist() == [-1]

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: task_value_batch(Task.A, [[2.5, 0.5]]), "0..3", id="target"),
            pytest.param(lambda: compose(Task.A, [[0.5, 0.5]], [[1, -1]]), "bits", id="compose"),
            pytest.param(lambda: final_state(Task.A, [[2.5, 0.5]]), "0..3", id="final_state"),
            pytest.param(lambda: exact_outcome_a([[2.5, 0.5]]), "0..3", id="exact_outcome"),
            pytest.param(
                lambda: run_quantum_batch(Task.A, [[2.5, 0.5]], 1.0, np.random.default_rng(0)),
                "0..3",
                id="run_quantum_batch",
            ),
            pytest.param(lambda: reduced_density(Task.A, [[0.5, 0.5]]), "bits", id="density"),
            pytest.param(
                lambda: run_protocol(
                    ProductStrategyA([[1, -1], [1, 1]]), CommTree.chain(2), (2.5, 0.5)
                ),
                "0..3",
                id="run_protocol",
            ),
        ],
    )
    def test_fractional_task_a_digits_are_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "task, reduced, message",
        [
            (Task.A, False, "0..3"),
            (Task.A, True, "bits"),
            (Task.B, False, re.escape("[0, 2*pi)")),
            (Task.B, True, re.escape("[0, pi)")),
        ],
    )
    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[0.5j, 0]]),  # real parts in every domain
            np.array([[0j, 0j]]),
            np.array([["0", "1"]]),
            np.array([[0, 1]], dtype=object),
        ],
        ids=["complex", "complex-zero", "text", "object"],
    )
    def test_non_numeric_arrays_are_refused(self, task, reduced, message, rows):
        with pytest.raises(ValueError, match=message):
            check_domain(task, rows, reduced=reduced)

    @pytest.mark.parametrize(
        "task, rows",
        [(Task.A, [[2 + 0.5j, 0]]), (Task.B, [[1 + 5j, 0.5]]), (Task.A, [["2", "0"]])],
    )
    def test_complex_and_text_targets_are_refused(self, task, rows):
        with pytest.raises(ValueError, match="task . inputs|task A digits"):
            task_value_batch(task, np.array(rows))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    def test_task_a_is_permutation_invariant(self, digits):
        if sum(digits) % 2:
            digits.append(1)
        forward = task_value(Task.A, digits)
        assert task_value(Task.A, digits[::-1]) == forward

    def test_batch_matches_scalar(self):
        tuples, _ = enumerate_a(4)
        batch = task_value_batch(Task.A, tuples)
        assert batch.tolist() == [task_value_a(row) for row in tuples.tolist()]

    def test_batch_b_matches_scalar(self):
        rng = np.random.default_rng(3)
        inputs = rng.uniform(0.0, TWO_PI, size=(50, 3))
        batch = task_value_batch(Task.B, inputs)
        assert batch.tolist() == [task_value_b(row) for row in inputs.tolist()]


class TestRoughCosine:
    # task B decisions come from float32 cosines, settled in float64 within the guard

    @pytest.mark.parametrize("bound", [math.pi, 10 * math.pi, TWO_PI * 620])
    def test_error_is_within_half_the_guard(self, bound):
        # 620 parties is the norm_b limit, so no task B row sum exceeds 2 pi 620
        total = np.random.default_rng(17).uniform(-bound, bound, 10**6)
        rough, guard = rough_cos(total)
        assert rough.dtype == np.float64
        assert np.abs(np.cos(total) - rough).max() <= guard / 2

    def test_settling_every_row_changes_no_target(self, monkeypatch):
        inputs = np.random.default_rng(19).uniform(0.0, TWO_PI, size=(50_000, 5))
        default = task_value_batch(Task.B, inputs)
        monkeypatch.setattr(tasks, "COS_GUARD", 4.0)  # every |rough| is below it
        settled = task_value_batch(Task.B, inputs)
        assert default.tobytes() == settled.tobytes() == target_b(inputs).tobytes()

    def test_near_ties_take_the_float64_sign(self):
        sums = np.array([0.5, 0.5, 1.5, 1.5]) * math.pi + np.array([1e-9, -1e-9, -1e-9, 1e-9])
        want = [task_value_b([s]) for s in sums]
        assert want == [-1, 1, -1, 1]
        # float32 cosines alone get at least one of these wrong
        assert (np.where(rough_cos(sums)[0] > 0, 1, -1) != want).any()
        assert task_value_batch(Task.B, sums[:, None]).tolist() == want
        split = np.stack([sums / 2, sums - sums / 2], axis=1)
        assert task_value_batch(Task.B, split).tolist() == target_b(split).tolist()

    def test_tie_reports_the_smallest_cosine_of_all_blocks(self):
        inputs = np.full((ROW_BLOCK + 10, 1), 0.5)
        inputs[3] = math.pi / 2 - 5e-13  # a tie in the first block
        inputs[ROW_BLOCK + 5] = math.pi / 2  # the smallest |cos| sits in the second
        smallest = np.abs(np.cos(inputs[:, 0])).min()
        assert smallest < 1e-16
        message = f"|cos(sum)| = {smallest:.3e} below 1.0e-12"
        with pytest.raises(CosineTieError, match=re.escape(message)):
            task_value_batch(Task.B, inputs)


def reduced_values(task: Task, x) -> np.ndarray:
    """The target on each row of reduced coordinates x, checked against the reduced domain."""
    return task_value_batch(task, check_domain(task, x, reduced=True))


class TestDecomposition:
    def test_task_a_digit_examples(self):
        x, y = decompose_batch(Task.A, check_domain(Task.A, [[3], [0]]))
        assert x.tolist() == [[1], [0]] and y.tolist() == [[-1], [1]]

    def test_task_b_example(self):
        x, y = decompose_batch(Task.B, check_domain(Task.B, [[1.5 * math.pi]]))
        assert y.tolist() == [[-1]]
        assert abs(x[0, 0] - math.pi / 2) < 1e-15

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=10))
    def test_compose_round_trip_a_is_bit_exact(self, digits):
        x, y = decompose_batch(Task.A, check_domain(Task.A, [digits]))
        assert compose(Task.A, x, y).tolist() == [digits]

    @given(
        st.lists(
            st.floats(0.0, TWO_PI, exclude_max=True, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_compose_round_trip_b_within_one_ulp(self, phases):
        back = compose(Task.B, *decompose_batch(Task.B, check_domain(Task.B, [phases])))
        for orig, new in zip(phases, back[0].tolist()):
            assert abs(new - orig) <= math.ulp(max(orig, 1.0))

    def test_compose_checks_its_inputs(self):
        with pytest.raises(ValueError):
            compose(Task.A, [[2, 0]], [[1, 1]])
        with pytest.raises(ValueError):
            compose(Task.B, [[math.pi]], [[1]])
        with pytest.raises(ValueError, match="y must be"):
            compose(Task.A, [[1, 1]], [[1, 0]])
        with pytest.raises(ValueError, match="y must be"):
            compose(Task.B, [[0.5, 0.5]], [[1]])
        # pi + x rounds up to 2 pi here; the result stays in the domain
        below_pi = np.nextafter(math.pi, 0.0)
        back = compose(Task.B, [[below_pi]], [[-1]])
        assert back[0, 0] < TWO_PI and abs(back[0, 0] - (math.pi + below_pi)) <= math.ulp(TWO_PI)
        assert density_b(back) > 0.0

    def test_decompose_checks_its_inputs(self):
        with pytest.raises(ValueError, match=re.escape("task A digits must be")):
            decompose_batch(Task.A, np.array([[9, -3]]))
        with pytest.raises(ValueError, match=re.escape("task B inputs must lie in [0, 2*pi)")):
            decompose_batch(Task.B, np.array([[9.5, -3.0]]))

    def test_decompose_takes_plain_lists(self):
        x, y = decompose_batch(Task.A, [[0, 1], [3, 2]])
        assert x.tolist() == [[0, 1], [1, 0]] and y.tolist() == [[1, 1], [-1, -1]]

    def test_identity_exhaustive_a_through_n6(self):
        # task_value(X) == prod(y) * the target on x, on every promised tuple
        for n in range(1, 7):
            tuples, _ = enumerate_a(n)
            x, y = decompose_batch(Task.A, tuples)
            lhs = task_value_batch(Task.A, tuples)
            assert np.array_equal(lhs, np.prod(y, axis=1) * reduced_values(Task.A, x))

    def test_identity_random_b(self):
        rng = np.random.default_rng(11)
        checked = 0
        for n in range(1, 7):
            inputs = rng.uniform(0.0, TWO_PI, size=(17_000, n))
            x, y = decompose_batch(Task.B, inputs)
            lhs = task_value_batch(Task.B, inputs)
            assert np.array_equal(lhs, np.prod(y, axis=1) * reduced_values(Task.B, x))
            checked += len(inputs)
        assert checked >= 100_000


class TestReducedValue:
    def test_examples(self):
        assert reduced_values(Task.A, [(1, 1, 0, 0, 0)]).tolist() == [-1]
        assert reduced_values(Task.A, [(0, 0)]).tolist() == [1]
        assert reduced_values(Task.B, [(math.pi / 2, math.pi / 2)]).tolist() == [-1]

    def test_parity_violation(self):
        with pytest.raises(PromiseViolationError):
            reduced_values(Task.A, [(1, 0)])

    def test_reduced_domain_checks(self):
        with pytest.raises(ValueError):
            reduced_values(Task.A, [(2, 0)])
        with pytest.raises(ValueError):
            reduced_values(Task.B, [(math.pi,)])


class TestDensities:
    def test_density_b_values(self):
        assert density_b([(0.0,)]).tolist() == pytest.approx([0.25], abs=1e-15)
        assert density_b([(0.0, math.pi / 2)]).tolist() == pytest.approx([0.0], abs=1e-15)

    @pytest.mark.parametrize("n,k", [(1, 4096), (2, 512), (3, 128)])
    def test_density_b_normalises(self, n, k):
        total = quadrature_nd(density_b, 0.0, TWO_PI, n, k)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_density_b_up_to_the_float_limit(self):
        assert density_b(np.zeros((1, 386))).tolist() == [1.0 / (4.0 * TWO_PI**385)]
        for n in (387, 388):
            with pytest.raises(ValueError, match="needs N <= 386 parties"):
                density_b(np.zeros((1, n)))

    def test_reduced_density_a(self):
        assert reduced_density(Task.A, [(0, 0, 1, 1, 0)]).tolist() == [1 / 16]
        assert reduced_density(Task.A, [(1, 0), (1, 1)]).tolist() == [0.0, 0.5]

    def test_reduced_density_b_values(self):
        assert reduced_density(Task.B, [(0.0,)]).tolist() == pytest.approx([0.5], abs=1e-15)
        got = reduced_density(Task.B, [(math.pi / 2, math.pi / 2)])
        assert got.tolist() == pytest.approx([1.0 / TWO_PI], rel=1e-12)

    def test_reduced_density_b_normalises(self):
        total = quadrature_nd(lambda pts: reduced_density(Task.B, pts), 0.0, math.pi, 1, 8192)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_densities_check_their_domains(self):
        with pytest.raises(ValueError, match="2\\*pi"):
            density_b([(0.5, TWO_PI)])
        with pytest.raises(ValueError, match="bits"):
            reduced_density(Task.A, [(0, 2)])
        with pytest.raises(ValueError, match="\\[0, pi\\)"):
            reduced_density(Task.B, [(math.pi,)])

    @settings(max_examples=60)
    @given(
        st.lists(
            st.floats(0.0, TWO_PI, exclude_max=True, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_reduced_density_consistent_with_joint(self, phases):
        # composing shifts the argument by multiples of float pi, so the
        # relative comparison is only meaningful away from the cosine zeros
        assume(abs(math.cos(math.fsum(phases))) > 1e-6)
        x, y = decompose_batch(Task.B, check_domain(Task.B, [phases]))
        joint = density_b(compose(Task.B, x, y))
        factored = 2.0 ** (-len(phases)) * reduced_density(Task.B, x)
        assert joint.tolist() == pytest.approx(factored.tolist(), rel=1e-12)

    def test_reduced_density_consistent_a(self):
        for n in range(1, 6):
            tuples, weights = enumerate_a(n)
            x, _ = decompose_batch(Task.A, tuples)
            factored = 2.0**-n * reduced_density(Task.A, x)
            assert factored.tolist() == pytest.approx(weights.tolist(), rel=1e-15)


def promised_rows(task: Task):
    """1-6 input rows of one width in the task's domain; task A sums are even."""
    if task is Task.A:
        cell = st.integers(0, 3)
    else:
        cell = st.floats(0.0, TWO_PI, exclude_max=True, allow_nan=False)

    def rows(n):
        row = st.lists(cell, min_size=n, max_size=n)
        if task is Task.A:
            # flipping the last digit's low bit makes an odd sum even
            row = row.map(lambda r: r[:-1] + [r[-1] ^ (sum(r) % 2)])
        return st.lists(row, min_size=1, max_size=6)

    return st.integers(1, 6).flatmap(rows)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    task=st.sampled_from(Task),
    visibility=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_one_row_calls_equal_their_batch_rows(data, task, visibility, seed):
    rows = data.draw(promised_rows(task))
    if task is Task.B:
        assume(all(abs(math.cos(math.fsum(row))) > 1e-9 for row in rows))
    values = task_value_batch(task, rows)
    assert [task_value(task, row) for row in rows] == values.tolist()
    x, _ = decompose_batch(task, np.array(rows))
    if task is Task.A or all(abs(math.cos(math.fsum(r))) > 1e-9 for r in x.tolist()):
        reduced = task_value_batch(task, x)
        assert [reduced_values(task, [r])[0] for r in x.tolist()] == reduced.tolist()
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    answers = run_quantum_batch(task, rows, visibility, twin)
    assert [run_quantum(task, row, visibility, rng) for row in rows] == answers.tolist()
    assert rng.bit_generator.state == twin.bit_generator.state
