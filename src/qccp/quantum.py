"""Sequential single-qubit protocols: phase encoding and +/- measurement.

One qubit starts in (|0> + |1>)/sqrt(2) and visits every party once.  Each
party multiplies the |1> amplitude by a phase set by its input (i^X_k for
task A, e^{i X_k} for task B); the last party measures in the
(|0> +/- |1>)/sqrt(2) basis.  The protocol never entangles anything, so two
complex amplitudes per input row are the entire state: :func:`final_state`
and :func:`measure_probabilities` are that model on (rows, N) arrays, the
reference that the closed form :func:`plus_probability` is tested against.

Task A phases are quarter turns, so that path also exists in exact integer
form (:func:`exact_outcome_a`): the final phase index is (sum X_k) mod 4 and
the answer +1/-1 for index 0/2 is an integer identity, not a float
coincidence.

Imperfect interference is modelled by a visibility V scaling the coherence
term: outcome +-1 is drawn with P(+-) = (1 +- V cos(sum phases))/2.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tasks import Task, accept_below, as_task, check_domain, coherence, real_in, whole_count

NORM_TOL = 1e-9

# exact unit phases i^k; products only swap and negate components
_QUARTER_UNITS = np.array([1, 1j, -1, -1j])


def final_state(task: Task, rows) -> np.ndarray:
    """(rows, 2) amplitudes (1, prod_k u_k)/sqrt(2) after one gate per party.

    Party k's gate |0><0| + u_k |1><1| has u_k = i^X_k (exact quarter turns)
    for task A and u_k = e^{i X_k} for task B.
    """
    arr = check_domain(task, rows)
    units = _QUARTER_UNITS[arr] if task is Task.A else np.exp(1j * arr)
    amp = 1.0 / math.sqrt(2.0)
    return np.stack([np.full(len(arr), amp + 0j), amp * units.prod(axis=1)], axis=1)


def measure_probabilities(states) -> np.ndarray:
    """(rows, 2) Born probabilities of the (|0> +/- |1>)/sqrt(2) outcomes.

    Each pair is renormalised by its own sum (equal to the squared norm), so
    the probabilities sum to one exactly and a vanishing branch is exactly 0.
    A row whose norm^2 is not 1 within NORM_TOL, or is NaN, is refused, as
    are amplitudes that are not numbers (text, objects).
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError(f"expected (rows, 2) amplitudes, got shape {states.shape}")
    if states.dtype.kind not in "biufc":
        raise ValueError(f"amplitudes must be numbers, got dtype {states.dtype}")
    amp0, amp1 = states.T
    probs = np.abs(np.stack([amp0 + amp1, amp0 - amp1], axis=1)) ** 2 / 2.0
    total = probs.sum(axis=1, keepdims=True)
    bad = ~(np.abs(total - 1.0) <= NORM_TOL)
    if bad.any():
        raise ValueError(f"state norm^2 = {total[bad][0]} is not 1 within {NORM_TOL}")
    return probs / total


def exact_outcome_a(rows) -> np.ndarray:
    """Deterministic task A answer per row from the integer quarter-turn index.

    No floating point anywhere: the outcome is 1 - (sum X_k) mod 4, the sign
    of the accumulated phase, exactly :func:`qccp.tasks.coherence` on task A.
    Odd sums raise PromiseViolationError.
    """
    return coherence(Task.A, rows)


def _plus(visibility: float):
    """c -> P(+1) = (1 + V c)/2 for a visibility V, refused unless it lies in [0, 1]."""
    visibility = real_in("visibility", visibility, 0.0, 1.0)
    return lambda c: (1.0 + visibility * c) / 2.0


def plus_probability(task: Task, rows, visibility: float) -> np.ndarray:
    """P(+1) = (1 + V cos(sum phases))/2 for each row of a (rows, N) input array."""
    return _plus(visibility)(coherence(task, rows))


def run_quantum_batch(
    task: Task,
    inputs: np.ndarray,
    visibility: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one protocol answer per row under visibility-limited interference.

    Draws +-1 with P(+-) = (1 +- V cos(sum phases))/2, one ``rng.random``
    value per row, after the inputs and V are validated.  With V = 1 this is
    the ideal protocol (deterministic for task A); V = 0 is a fair coin.
    :func:`_answers`, which the experiment engine shares, decides them: task
    B's through :func:`qccp.tasks.accept_below`, as float64 cosines would.
    """
    plus = _plus(visibility)
    rows = coherence(task, inputs) if as_task(task) is Task.A else check_domain(task, inputs)
    return _answers(task, rows, rng.random(len(rows)), plus)


def _answers(task: Task, rows: np.ndarray, u: np.ndarray, plus) -> np.ndarray:
    """+1 where u < plus(cos(sum phases)), else -1, from task A's coherences or task B's phases."""
    if task is Task.A:
        return np.where(u < plus(rows), 1, -1)
    return np.where(accept_below(u, rows, plus)[0], 1, -1)


def run_quantum(task: Task, inputs: Sequence, visibility: float, rng: np.random.Generator) -> int:
    """:func:`run_quantum_batch` on one input tuple."""
    return int(run_quantum_batch(task, [inputs], visibility, rng)[0])


def quantum_fidelity(task: Task, n_parties: int) -> float:
    """Fidelity of the single-qubit protocol: 1 for A, pi/4 for B, any N."""
    whole_count("n_parties", n_parties, 1)
    return 1.0 if as_task(task) is Task.A else math.pi / 4.0
