"""One task rule for the whole public API: ``tasks.as_task``.

Every callable in ``qccp.__all__``, and every public classmethod of a class
there, with a ``task`` parameter has a case in CASES, so a new entry point
without one fails ``test_every_task_taking_callable_has_a_case``.  For each
case a value that is not a :class:`Task` member (the text "A", None, an int,
a bool, a member of another enum) raises a TypeError that names ``task``
before anything is drawn, and both members give their own task's answer.
"""

import dataclasses
import inspect
import math
from enum import Enum

import numpy as np
import pytest

from qccp import (
    PRESETS,
    CommTree,
    ExperimentParams,
    ProductStrategyA,
    ProductStrategyB,
    Task,
    check_domain,
    classical_bound,
    coherence,
    compose,
    decompose_batch,
    fidelity_mc,
    final_state,
    gamma_from_visibility,
    plus_probability,
    quantum_fidelity,
    reduced_density,
    run_quantum,
    run_quantum_batch,
    sample_inputs,
    task_value,
    task_value_batch,
    visibility_from_gamma,
)
from qccp.sampling import RandomStream
from support import public_callables


class Other(Enum):
    A = "A"


DIGITS = np.array([[0, 2, 1, 1], [1, 1, 0, 0]])  # task A digits, and task B phases too
BITS = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])  # reduced coordinates of either task
SIGNS = np.array([[1, -1, 1, 1], [-1, -1, 1, -1]])
TREE = CommTree.chain(2)
PROTOCOLS = {Task.A: ProductStrategyA([[1, -1], [1, 1]]), Task.B: ProductStrategyB(np.ones((2, 8)))}


# name: call taking (task, generator)
CASES = {
    "check_domain": lambda task, rng: check_domain(task, DIGITS),
    "coherence": lambda task, rng: coherence(task, DIGITS),
    "compose": lambda task, rng: compose(task, BITS, SIGNS),
    "decompose_batch": lambda task, rng: decompose_batch(task, DIGITS),
    "reduced_density": lambda task, rng: reduced_density(task, BITS),
    "task_value": lambda task, rng: task_value(task, DIGITS[0]),
    "task_value_batch": lambda task, rng: task_value_batch(task, DIGITS),
    "final_state": lambda task, rng: final_state(task, DIGITS),
    "plus_probability": lambda task, rng: plus_probability(task, DIGITS, 0.9),
    "run_quantum": lambda task, rng: run_quantum(task, DIGITS[0], 0.9, rng),
    "run_quantum_batch": lambda task, rng: run_quantum_batch(task, DIGITS, 0.9, rng),
    "quantum_fidelity": lambda task, rng: quantum_fidelity(task, 5),
    "sample_inputs": lambda task, rng: sample_inputs(task, 3, rng, 10),
    "fidelity_mc": lambda task, rng: fidelity_mc(PROTOCOLS.get(task, PROTOCOLS[Task.A]), TREE, task, 100, rng),
    "classical_bound": lambda task, rng: classical_bound(task, 5),
    "gamma_from_visibility": lambda task, rng: gamma_from_visibility(task, 0.9),
    "visibility_from_gamma": lambda task, rng: visibility_from_gamma(task, 0.8),
    "ExperimentParams": lambda task, rng: ExperimentParams(task, 5, 5000.0, 2e-4, 0.45, 0.9, 10),
}
DRAWING = ("sample_inputs", "run_quantum", "run_quantum_batch", "fidelity_mc")

NOT_TASKS = {"text-A": "A", "text-B": "B", "none": None, "int": 1, "bool": True, "other-enum": Other.A}


def rng():
    return RandomStream(11, 0).generator()


def takes_task(obj) -> bool:
    try:
        return "task" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # no signature to read
        return False


def test_every_task_taking_callable_has_a_case():
    assert {name for name, obj in public_callables() if takes_task(obj)} == set(CASES)
    assert len(CASES) == 18


@pytest.mark.parametrize("task", list(Task))
@pytest.mark.parametrize("name", sorted(CASES))
def test_members_pass(name, task):
    CASES[name](task, rng())


@pytest.mark.parametrize("kind", sorted(NOT_TASKS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_value_that_is_not_a_task_is_refused_by_name(name, kind):
    with pytest.raises(TypeError, match=r"^task must be Task\.A or Task\.B, got "):
        CASES[name](NOT_TASKS[kind], rng())


@pytest.mark.parametrize("kind", sorted(NOT_TASKS))
@pytest.mark.parametrize("name", DRAWING)
def test_refusal_comes_before_any_draw(name, kind):
    generator = rng()
    before = generator.bit_generator.state
    with pytest.raises(TypeError, match="^task must"):
        CASES[name](NOT_TASKS[kind], generator)
    assert generator.bit_generator.state == before


def test_the_rule_itself():
    from qccp.tasks import as_task

    assert as_task(Task.A) is Task.A and as_task(Task.B) is Task.B
    with pytest.raises(TypeError, match=r"^task must be Task\.A or Task\.B, got 'A'$"):
        as_task("A")
    with pytest.raises(TypeError, match=r"^task must be Task\.A or Task\.B, got <Other\.A: 'A'>$"):
        as_task(Other.A)


def test_text_no_longer_answers_for_the_other_task():
    assert classical_bound(Task.A, 5).success == 0.625
    assert task_value(Task.A, [0, 2, 1, 1]) == 1
    for call in (lambda: classical_bound("A", 5), lambda: task_value("A", [0, 2, 1, 1])):
        with pytest.raises(TypeError, match="^task must"):
            call()


def test_replaced_params_are_checked_too():
    with pytest.raises(TypeError, match="^task must"):
        dataclasses.replace(PRESETS["A"], task="B")


def test_protocol_mismatch_keeps_its_message():
    with pytest.raises(ValueError, match="^ProductStrategyA plays task A$"):
        fidelity_mc(PROTOCOLS[Task.A], TREE, Task.B, 100, rng())


@pytest.mark.parametrize("task", list(Task))
def test_gamma_reads_the_quantum_fidelity(task):
    fidelity = quantum_fidelity(task, 5)
    assert fidelity == (1.0 if task is Task.A else math.pi / 4.0)
    for v in (0.0, 0.3, 0.932, 1.0):
        gamma = gamma_from_visibility(task, v)
        assert gamma == (1.0 + v * fidelity) / 2.0
        assert visibility_from_gamma(task, gamma) == pytest.approx(v, abs=1e-15)


def test_presets_keep_their_visibilities():
    assert PRESETS["A"].visibility == 0.9319999999999999
    assert PRESETS["B"].visibility == 0.9116395140303765
