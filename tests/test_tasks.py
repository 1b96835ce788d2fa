import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qccp import (
    CosineTieError,
    PromiseViolationError,
    ReducedInput,
    Task,
    compose,
    decompose,
    decompose_batch,
    density_b,
    enumerate_a,
    reduced_density,
    reduced_value,
    run_quantum,
    run_quantum_batch,
    task_value,
    task_value_batch,
)

from oracles import quadrature_nd, task_value_a, task_value_b

TWO_PI = 2.0 * math.pi


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


class TestDecomposition:
    def test_task_a_digit_examples(self):
        assert decompose(Task.A, (3,)) == decompose(Task.A, [3])
        assert decompose(Task.A, (3,)).x == (1,) and decompose(Task.A, (3,)).y == (-1,)
        assert decompose(Task.A, (0,)).x == (0,) and decompose(Task.A, (0,)).y == (1,)

    def test_task_b_example(self):
        reduced = decompose(Task.B, (1.5 * math.pi,))
        assert reduced.y == (-1,)
        assert abs(reduced.x[0] - math.pi / 2) < 1e-15

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=10))
    def test_compose_round_trip_a_is_bit_exact(self, digits):
        assert compose(Task.A, decompose(Task.A, digits)) == tuple(digits)

    @given(
        st.lists(
            st.floats(0.0, TWO_PI, exclude_max=True, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_compose_round_trip_b_within_one_ulp(self, phases):
        back = compose(Task.B, decompose(Task.B, phases))
        for orig, new in zip(phases, back):
            assert abs(new - orig) <= math.ulp(max(orig, 1.0))

    def test_identity_exhaustive_a_through_n6(self):
        # task_value(X) == prod(y) * reduced_value(x) on every promised tuple
        for n in range(1, 7):
            tuples, _ = enumerate_a(n)
            for row in tuples.tolist():
                reduced = decompose(Task.A, row)
                lhs = task_value(Task.A, row)
                rhs = math.prod(reduced.y) * reduced_value(Task.A, reduced.x)
                assert lhs == rhs

    def test_identity_random_b(self):
        rng = np.random.default_rng(11)
        checked = 0
        for n in range(1, 7):
            inputs = rng.uniform(0.0, TWO_PI, size=(17_000, n))
            for row in inputs.tolist():
                reduced = decompose(Task.B, row)
                lhs = task_value(Task.B, row)
                rhs = math.prod(reduced.y) * reduced_value(Task.B, reduced.x)
                assert lhs == rhs
                checked += 1
        assert checked >= 100_000


class TestReducedValue:
    def test_examples(self):
        assert reduced_value(Task.A, (1, 1, 0, 0, 0)) == -1
        assert reduced_value(Task.A, (0, 0)) == 1
        assert reduced_value(Task.B, (math.pi / 2, math.pi / 2)) == -1

    def test_parity_violation(self):
        with pytest.raises(PromiseViolationError):
            reduced_value(Task.A, (1, 0))

    def test_reduced_domain_checks(self):
        with pytest.raises(ValueError):
            reduced_value(Task.A, (2, 0))
        with pytest.raises(ValueError):
            reduced_value(Task.B, (math.pi,))


class TestDensities:
    def test_density_b_values(self):
        assert density_b((0.0,)) == pytest.approx(0.25, abs=1e-15)
        assert density_b((0.0, math.pi / 2)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n,k", [(1, 4096), (2, 512), (3, 128)])
    def test_density_b_normalises(self, n, k):
        total = quadrature_nd(
            lambda pts: np.abs(np.cos(pts.sum(axis=1))) / (4.0 * TWO_PI ** (n - 1)),
            0.0,
            TWO_PI,
            n,
            k,
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_reduced_density_a(self):
        assert reduced_density(Task.A, (0, 0, 1, 1, 0)) == pytest.approx(1 / 16, abs=0)
        assert reduced_density(Task.A, (1, 0)) == 0.0

    def test_reduced_density_b_values(self):
        assert reduced_density(Task.B, (0.0,)) == pytest.approx(0.5, abs=1e-15)
        got = reduced_density(Task.B, (math.pi / 2, math.pi / 2))
        assert got == pytest.approx(1.0 / TWO_PI, rel=1e-12)

    def test_reduced_density_b_normalises(self):
        total = quadrature_nd(
            lambda pts: np.abs(np.cos(pts.sum(axis=1))) / 2.0, 0.0, math.pi, 1, 8192
        )
        assert total == pytest.approx(1.0, abs=1e-3)

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
        reduced = decompose(Task.B, phases)
        joint = density_b(compose(Task.B, reduced))
        factored = 2.0 ** (-len(phases)) * reduced_density(Task.B, reduced.x)
        assert joint == pytest.approx(factored, rel=1e-12)

    def test_reduced_density_consistent_a(self):
        for n in range(1, 6):
            tuples, weights = enumerate_a(n)
            for row, w in zip(tuples.tolist(), weights):
                reduced = decompose(Task.A, row)
                assert 2.0**-n * reduced_density(Task.A, reduced.x) == pytest.approx(
                    w, rel=1e-15
                )


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
    x, y = decompose_batch(task, np.array(rows))
    for i, row in enumerate(rows):
        assert decompose(task, row) == ReducedInput(tuple(x[i].tolist()), tuple(y[i].tolist()))
    if task is Task.A or all(abs(math.cos(math.fsum(r))) > 1e-9 for r in x.tolist()):
        reduced = task_value_batch(task, x)
        assert [reduced_value(task, r) for r in x.tolist()] == reduced.tolist()
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    answers = run_quantum_batch(task, rows, visibility, twin)
    assert [run_quantum(task, row, visibility, rng) for row in rows] == answers.tolist()
    assert rng.bit_generator.state == twin.bit_generator.state
