"""One array rule for the whole public API: ``tasks.whole_array``.

Every integer, sign or flag array a public constructor or function takes has
a case in CASES.  For each case, an entry that is a fraction, NaN, inf,
text, complex or an object, or a whole number outside the argument's set,
is refused with a ValueError that names the argument.  The same array
written as whole floats gives the result the integers give, stored as int64
(bool for the detection flags).
"""

import math
import re

import numpy as np
import pytest

from qccp import (
    CommTree,
    GeneralProtocolA,
    Histogram,
    ProductStrategyA,
    ProductStrategyB,
    Runs,
    Task,
    check_domain,
    compose,
    task_value_batch,
)

RUNS = {
    "inputs": np.zeros((2, 2), dtype=np.int64),
    "trigger_count": [1, 0],
    "detected": [True, False],
    "answer": [1, -1],
    "truth": [-1, 1],
}


def runs_with(column):
    return lambda values: getattr(Runs(**{**RUNS, column: values}), column)


def general_protocol(table):
    return GeneralProtocolA(CommTree.chain(2), (table, np.ones((4, 2), dtype=np.int64))).tables[0]


# name: (call taking the array and returning what it stores, a valid array,
# a whole entry outside the argument's set, the argument's name in the message)
CASES = {
    "ProductStrategyA": (lambda s: ProductStrategyA(s).signs, [[1, -1], [-1, 1]], 0, "signs"),
    "ProductStrategyB": (lambda s: ProductStrategyB(s).signs, [[1, -1, 1, 1]], 2, "signs"),
    "GeneralProtocolA": (general_protocol, [[1], [-1], [-1], [1]], -2, "tables[0]"),
    "Runs.trigger_count": (runs_with("trigger_count"), [1, 0], -1, "trigger_count"),
    "Runs.detected": (runs_with("detected"), [1, 0], 2, "detected"),
    "Runs.answer": (runs_with("answer"), [1, -1], 0, "answer"),
    "Runs.truth": (runs_with("truth"), [-1, 1], 3, "truth"),
    "Histogram": (lambda c: Histogram([0.0, 0.5, 1.0], c, 1).counts, [2, 0], -1, "counts"),
    "compose": (lambda y: compose(Task.A, [[0, 1]], y), [[1, -1]], 0, "y"),
    "task_value_batch": (lambda x: task_value_batch(Task.A, x), [[2, 0], [1, 3]], 4, "task A digits"),
    "check_domain": (lambda x: check_domain(Task.A, x, reduced=True), [[1, 1]], 2, "task A bits"),
}

BAD_ENTRIES = {
    "fraction": 1.5, "nan": math.nan, "inf": math.inf, "text": "1", "complex": 1 + 0j, "object": None,
}


def with_first(valid, entry):
    """``valid`` as nested lists with its first entry replaced by ``entry``."""
    values = np.array(valid, dtype=object)
    values.flat[0] = entry
    return values.tolist()


def refused(name):
    return pytest.raises(ValueError, match=f"^{re.escape(name)} must be an array of ")


@pytest.mark.parametrize("entry", BAD_ENTRIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_that_is_not_a_whole_number_is_refused_by_name(case, entry):
    call, valid, _, name = CASES[case]
    call(valid)
    with refused(name):
        call(with_first(valid, BAD_ENTRIES[entry]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_outside_the_set_is_refused_by_name(case):
    call, valid, outside, name = CASES[case]
    with refused(name):
        call(with_first(valid, outside))


@pytest.mark.parametrize("case", sorted(CASES))
def test_whole_floats_give_what_integers_give(case):
    call, valid, _, _ = CASES[case]
    want = call(valid)
    got = call(np.array(valid, dtype=np.float64))
    assert want.dtype == (bool if case == "Runs.detected" else np.int64)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_whole_floats_still_pass_where_they_did():
    assert task_value_batch(Task.A, [[2.0, 0.0]]).tolist() == [-1]
    assert Histogram([0.0, 1.0], [2.0], 1).counts.tolist() == [2]
    composed = compose(Task.A, [[0, 1]], [[1.0, -1.0]])
    assert composed.dtype == np.int64 and composed.tolist() == [[0, 3]]


def test_int64_arrays_are_stored_without_a_copy():
    signs, counts, digits = np.array([[1, -1], [-1, 1]]), np.array([1, 0]), np.array([[2, 0], [1, 3]])
    assert ProductStrategyA(signs).signs is signs
    assert Runs(digits, counts, [True, False], [1, -1], [-1, 1]).trigger_count is counts
    assert check_domain(Task.A, digits) is digits


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: Runs([["a", "b"]], [1], [True], [1], [1]), "inputs"),
        (lambda: Runs(np.array([[1j, 0j]]), [1], [True], [1], [1]), "inputs"),
        (lambda: Histogram(["0", "1"], [1], 1), "bin_edges"),
        (lambda: Histogram(np.array([0, 1], dtype=object), [1], 1), "bin_edges"),
    ],
    ids=["runs-text", "runs-complex", "histogram-text", "histogram-object"],
)
def test_non_numeric_inputs_and_edges_are_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()
