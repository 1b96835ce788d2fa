"""One tree rule for the public API: every ``tree`` argument must be a ``CommTree``.

Every callable in ``qccp.__all__``, and every public classmethod of a class
there, with a ``tree`` parameter has a case in CASES, so a new entry point
without one fails ``test_every_tree_taking_callable_has_a_case``.  For each
case a value that is not a :class:`CommTree` (a parents tuple, None, a party
count, text) raises a TypeError that names ``tree`` before anything is
drawn, and a tree passes.
"""

import inspect
import re

import numpy as np
import pytest

from qccp import (
    CommTree,
    GeneralProtocolA,
    ProductStrategyA,
    Task,
    brute_force_bound_a,
    certify_bound_a,
    fidelity_mc,
    run_protocol,
)
from qccp.sampling import RandomStream
from support import public_callables

TREE = CommTree.chain(2)
STRATEGY = ProductStrategyA([[1, -1], [1, 1]])
TABLES = (np.ones((4, 1), dtype=np.int64), np.ones((4, 2), dtype=np.int64))

# name: call taking (tree, generator)
CASES = {
    "GeneralProtocolA": lambda tree, rng: GeneralProtocolA(tree, TABLES),
    "brute_force_bound_a": lambda tree, rng: brute_force_bound_a(tree),
    "certify_bound_a": lambda tree, rng: certify_bound_a(tree),
    "fidelity_mc": lambda tree, rng: fidelity_mc(STRATEGY, tree, Task.A, 10, rng),
    "run_protocol": lambda tree, rng: run_protocol(STRATEGY, tree, (0, 2)),
}

NOT_TREES = {"parents": (1, 2), "none": None, "count": 2, "text": "chain"}


def rng():
    return RandomStream(11, 0).generator()


def takes_tree(obj) -> bool:
    try:
        return "tree" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # no signature to read
        return False


def test_every_tree_taking_callable_has_a_case():
    assert {name for name, obj in public_callables() if takes_tree(obj)} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_tree_passes(name):
    CASES[name](TREE, rng())


@pytest.mark.parametrize("kind", sorted(NOT_TREES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_value_that_is_not_a_tree_is_refused_by_name(name, kind):
    generator = rng()
    before = generator.bit_generator.state
    value = NOT_TREES[kind]
    with pytest.raises(TypeError, match=f"^tree must be a CommTree, got {re.escape(repr(value))}$"):
        CASES[name](value, generator)
    assert generator.bit_generator.state == before

