"""One count rule for the whole public API: ``tasks.whole_count``.

Every callable in ``qccp.__all__``, and every public classmethod of a class
there, with a count parameter has a case in CASES, so a new entry point
without one fails ``test_every_count_taking_callable_has_a_case``.  For each case a
non-integer count is refused by name, a numpy integer count gives the same
result as a plain int, and the counts a constructor stores are ints.
"""

import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from qccp import (
    CommTree,
    ExperimentParams,
    Histogram,
    ProductStrategyA,
    Runs,
    SuccessStats,
    Task,
    block_fractions,
    block_histogram,
    classical_bound,
    coordinate_ascent_b,
    enumerate_a,
    exhaust_product_strategies_a,
    fidelity_mc,
    half_split_strategy_b,
    optimize_strategy_b,
    product_strategy_a_from_index,
    quantum_fidelity,
    random_strategy_b,
    sample_a,
    sample_b,
    sample_inputs,
    stream_runs,
)
from qccp.sampling import RandomStream
from support import plain, public_callables

COUNT_PARAMETERS = {
    "n_parties", "size", "n_samples", "restarts", "n_target", "block_size", "streams",
    "index", "parents", "n", "successes", "cells", "max_rounds", "max_sweeps", "seed", "stream_id",
}


def rng():
    return RandomStream(3, 0).generator()


def params(n_parties=2, n_target=20):
    return ExperimentParams(Task.A, n_parties, 5000.0, 2e-4, 0.452, 0.932, n_target)


RUNS = Runs(
    inputs=np.zeros((20, 2), dtype=np.int64),
    trigger_count=np.ones(20, dtype=np.int64),
    detected=np.ones(20, dtype=bool),
    answer=np.where(np.arange(20) % 3, 1, -1),
    truth=np.ones(20, dtype=np.int64),
)


def no_ints(result):
    return ()


# name: (call taking the counts by keyword, valid counts, the counts the result stores)
CASES = {
    "CommTree": (
        lambda n_parties, parents: CommTree(n_parties, parents),
        {"n_parties": 3, "parents": (2, 2)},
        lambda tree: (tree.n_parties, *tree.parents),
    ),
    "CommTree.chain": (CommTree.chain, {"n_parties": 3}, lambda tree: (tree.n_parties, *tree.parents)),
    "CommTree.star": (CommTree.star, {"n_parties": 3}, lambda tree: (tree.n_parties, *tree.parents)),
    "ExperimentParams": (params, {"n_parties": 5, "n_target": 10}, lambda p: (p.n_parties, p.n_target)),
    "Histogram": (
        lambda block_size: Histogram([0.0, 0.5, 1.0], [1, 2], block_size),
        {"block_size": 5},
        lambda h: (h.block_size,),
    ),
    "RandomStream": (RandomStream, {"seed": 3, "stream_id": 1}, lambda s: (s.seed, s.stream_id)),
    "SuccessStats": (
        lambda n, successes: SuccessStats(n, successes, 0.1),
        {"n": 10, "successes": 7},
        lambda s: (s.n, s.successes),
    ),
    "SuccessStats.from_counts": (
        SuccessStats.from_counts, {"n": 10, "successes": 7}, lambda s: (s.n, s.successes),
    ),
    "block_fractions": (lambda block_size: block_fractions(RUNS, block_size), {"block_size": 5}, no_ints),
    "block_histogram": (lambda block_size: block_histogram(RUNS, block_size), {"block_size": 5},
                        lambda h: (h.block_size,)),
    "classical_bound": (lambda n_parties: classical_bound(Task.B, n_parties), {"n_parties": 5}, no_ints),
    "coordinate_ascent_b": (
        lambda max_sweeps: coordinate_ascent_b(half_split_strategy_b(2, 9), max_sweeps),
        {"max_sweeps": 3},
        no_ints,
    ),
    "enumerate_a": (enumerate_a, {"n_parties": 3}, no_ints),
    "exhaust_product_strategies_a": (exhaust_product_strategies_a, {"n_parties": 3}, no_ints),
    "fidelity_mc": (
        lambda n_samples: fidelity_mc(
            ProductStrategyA([[1, -1], [1, 1]]), CommTree.chain(2), Task.A, n_samples, rng()
        ),
        {"n_samples": 100},
        no_ints,
    ),
    "half_split_strategy_b": (half_split_strategy_b, {"n_parties": 3, "cells": 8}, no_ints),
    "optimize_strategy_b": (
        lambda n_parties, cells, restarts: optimize_strategy_b(n_parties, cells, restarts, rng()),
        {"n_parties": 2, "cells": 8, "restarts": 2},
        no_ints,
    ),
    "product_strategy_a_from_index": (
        product_strategy_a_from_index, {"index": 5, "n_parties": 2}, no_ints,
    ),
    "quantum_fidelity": (lambda n_parties: quantum_fidelity(Task.B, n_parties), {"n_parties": 5}, no_ints),
    "random_strategy_b": (
        lambda n_parties, cells: random_strategy_b(n_parties, cells, rng()),
        {"n_parties": 2, "cells": 8},
        no_ints,
    ),
    "sample_a": (lambda n_parties, size: sample_a(n_parties, rng(), size), {"n_parties": 3, "size": 10},
                 no_ints),
    "sample_b": (
        lambda n_parties, size, max_rounds: sample_b(n_parties, rng(), size, max_rounds),
        {"n_parties": 3, "size": 10, "max_rounds": 5},
        no_ints,
    ),
    "sample_inputs": (
        lambda n_parties, size: sample_inputs(Task.B, n_parties, rng(), size),
        {"n_parties": 3, "size": 10},
        no_ints,
    ),
    "stream_runs": (
        lambda seed, streams: stream_runs(params(), seed, streams),
        {"seed": 1, "streams": 2},
        lambda chunks: tuple(i for i, _ in chunks),
    ),
}

CASE_PARAMETERS = [(name, param) for name, (_, counts, _) in CASES.items() for param in counts]


def count_parameters(obj) -> set[str]:
    try:
        return set(inspect.signature(obj).parameters) & COUNT_PARAMETERS
    except (TypeError, ValueError):  # no signature to read
        return set()


def with_counts(counts: dict, name: str, make) -> dict:
    """``counts`` with ``make`` applied to count ``name``, or to each count of a tuple of them."""
    value = counts[name]
    return {**counts, name: tuple(map(make, value)) if isinstance(value, tuple) else make(value)}


def test_every_count_taking_callable_has_a_case():
    taking = {name: count_parameters(obj) for name, obj in public_callables()}
    assert {name for name, params in taking.items() if params} == set(CASES)
    for name, (_, counts, _) in CASES.items():
        assert set(counts) == taking[name], name


@pytest.mark.parametrize("name, param", CASE_PARAMETERS)
def test_non_integer_count_is_refused_by_name(name, param):
    call, counts, _ = CASES[name]
    call(**counts)  # the other counts are valid
    with pytest.raises(TypeError, match=rf"^{param}(\[0\])? must be an integer, got 2\.5$"):
        call(**with_counts(counts, param, lambda _: 2.5))


@pytest.mark.parametrize("name", sorted(CASES))
def test_numpy_integer_counts_work_and_are_stored_as_ints(name):
    call, counts, stored = CASES[name]
    numpy_counts = counts
    for param in counts:
        numpy_counts = with_counts(numpy_counts, param, np.int64)
    got = call(**numpy_counts)
    assert plain(got) == plain(call(**counts))
    assert all(type(value) is int for value in stored(got))


def test_normalised_counts_compare_hash_and_serialise():
    assert CommTree(3, [2, 2]) == CommTree.star(3)
    assert hash(CommTree(3, [2, 2])) == hash(CommTree.star(3))
    record = dataclasses.asdict(params(n_target=np.int64(10)))
    assert json.loads(json.dumps({**record, "task": record["task"].value}))["n_target"] == 10
    with pytest.raises(TypeError, match="^n must be an integer, got 10.0$"):
        SuccessStats.from_counts(10.0, 5)
    assert SuccessStats.from_counts(np.int64(10), np.int64(5)).p_hat == 0.5


BELOW_MINIMUM = {
    "n_parties must be >= 1, got 0": lambda: sample_a(0, rng(), 5),
    "max_rounds must be >= 0, got -1": lambda: sample_b(3, rng(), 5, -1),
    "max_sweeps must be >= 0, got -1": lambda: coordinate_ascent_b(half_split_strategy_b(2, 9), -1),
    "cells must be >= 8, got 4": lambda: optimize_strategy_b(2, 4, 1, rng()),
    "cells must be >= 2, got 1": lambda: half_split_strategy_b(2, 1),
    "parents[0] must be >= 0, got -1": lambda: CommTree(3, (-1, 2)),
    "n must be >= 1, got 0": lambda: SuccessStats(0, 0, 0.0),
    "streams must be >= 1, got 0": lambda: stream_runs(params(), 1, 0),
    "seed must be >= 0, got -1": lambda: RandomStream(-1),
    "stream_id must be >= 0, got -1": lambda: RandomStream(1, -1),
}


@pytest.mark.parametrize("message", BELOW_MINIMUM)
def test_count_below_its_minimum_is_refused_by_name(message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BELOW_MINIMUM[message]()


@pytest.mark.parametrize("parents", [(1, 0), (1, 2, 0, 4), (2, 3, 1, 1)])
def test_tree_cycles_are_refused_at_construction(parents):
    with pytest.raises(ValueError, match="never reaches the root"):
        CommTree(len(parents) + 1, parents)


def test_send_order_is_deepest_first_then_lowest():
    assert CommTree(5, (1, 4, 4, 4)).send_order() == (0, 1, 2, 3)
    assert CommTree(5, (4, 0, 1, 4)).send_order() == (2, 1, 0, 3)
    assert CommTree(1, ()).send_order() == ()


def test_text_strategy_index_is_refused_by_name():
    with pytest.raises(TypeError, match="^index must be an integer, got '3'$"):
        product_strategy_a_from_index("3", 2)
    for index in (-1, 16):
        with pytest.raises(ValueError, match=rf"^strategy index {index} outside \[0, 4\^2\)$"):
            product_strategy_a_from_index(index, 2)
