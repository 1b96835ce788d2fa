"""Sequential single-qubit protocols: phase encoding and +/- measurement.

One qubit starts in (|0> + |1>)/sqrt(2) and visits every party once.  Each
party multiplies the |1> amplitude by a phase set by its input (i^X_k for
task A, e^{i X_k} for task B); the last party measures in the
(|0> +/- |1>)/sqrt(2) basis.  The protocol never entangles anything, so two
complex amplitudes are the entire state.

Task A phases are quarter turns, so that path also exists in exact integer
form (:class:`PhaseZ4`, :func:`exact_outcome_a`): the final phase index is
(sum X_k) mod 4 and the answer +1/-1 for index 0/2 is an integer identity,
not a float coincidence.

Imperfect interference is modelled by a visibility V scaling the coherence
term: outcome +-1 is drawn with P(+-) = (1 +- V cos(sum phases))/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tasks import PromiseViolationError, Task, coherence

NORM_TOL = 1e-9

# exact unit phases i^k; products only swap and negate components
_QUARTER_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class QubitState:
    """Two complex amplitudes over the computational basis."""

    amp0: complex
    amp1: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.amp0) ** 2 + abs(self.amp1) ** 2)


@dataclass(frozen=True)
class PhaseZ4:
    """Exact quarter-turn phase, an integer number of i factors mod 4."""

    quarter_turns: int

    def __post_init__(self):
        object.__setattr__(self, "quarter_turns", int(self.quarter_turns) % 4)

    def advanced(self, digit: int) -> "PhaseZ4":
        return PhaseZ4(self.quarter_turns + int(digit))

    def unit(self) -> complex:
        return _QUARTER_UNITS[self.quarter_turns]

    def to_sign(self) -> int:
        """+1 for phase 1, -1 for phase -1; odd turns have no sign."""
        if self.quarter_turns == 0:
            return 1
        if self.quarter_turns == 2:
            return -1
        raise PromiseViolationError(
            f"phase index {self.quarter_turns} is imaginary; digit sum was odd"
        )


def initial_state() -> QubitState:
    amp = 1.0 / math.sqrt(2.0)
    return QubitState(amp0=amp, amp1=amp)


def phase_encode(state: QubitState, task: Task, value) -> QubitState:
    """Apply one party's phase gate |0><0| + e^{i phi}|1><1| to the state."""
    if task is Task.A:
        digit = int(value)
        if digit not in (0, 1, 2, 3):
            raise ValueError(f"task A digit must lie in 0..3, got {value}")
        return QubitState(state.amp0, state.amp1 * _QUARTER_UNITS[digit])
    phi = float(value)
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError("task B phase must lie in [0, 2*pi)")
    return QubitState(state.amp0, state.amp1 * cmath.exp(1j * phi))


def final_state(task: Task, inputs: Sequence) -> QubitState:
    """Run the whole encoding pipeline: one gate per party, nothing else."""
    state = initial_state()
    for value in inputs:
        state = phase_encode(state, task, value)
    return state


def measure_probabilities(state: QubitState) -> tuple[float, float]:
    """Born probabilities of the (|0> +/- |1>)/sqrt(2) outcomes.

    The pair is renormalised by its own sum (equal to the squared norm), so
    the probabilities sum to one exactly and a vanishing branch is exactly 0.
    """
    p_plus = abs(state.amp0 + state.amp1) ** 2 / 2.0
    p_minus = abs(state.amp0 - state.amp1) ** 2 / 2.0
    total = p_plus + p_minus
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 = {total} is not 1 within {NORM_TOL}")
    return p_plus / total, p_minus / total


def exact_outcome_a(inputs: Sequence[int]) -> int:
    """Deterministic task A answer via integer quarter-turn accumulation.

    No floating point anywhere: the measurement outcome equals the sign of
    the accumulated phase, defined whenever the promised even sum holds.
    """
    phase = PhaseZ4(0)
    for value in inputs:
        digit = int(value)
        if digit not in (0, 1, 2, 3):
            raise ValueError(f"task A digit must lie in 0..3, got {value}")
        phase = phase.advanced(digit)
    return phase.to_sign()


def plus_probability(task: Task, rows, visibility: float) -> np.ndarray:
    """P(+1) = (1 + V cos(sum phases))/2 for each row of a (rows, N) input array."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return (1.0 + visibility * coherence(task, rows)) / 2.0


def run_quantum_batch(
    task: Task,
    inputs: np.ndarray,
    visibility: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one protocol answer per row under visibility-limited interference.

    Draws +-1 with P(+-) = (1 +- V cos(sum phases))/2, one ``rng.random``
    value per row.  With V = 1 this is the ideal protocol (deterministic for
    task A); V = 0 is a fair coin.
    """
    p_plus = plus_probability(task, inputs, visibility)
    return np.where(rng.random(len(p_plus)) < p_plus, 1, -1)


def run_quantum(task: Task, inputs: Sequence, visibility: float, rng: np.random.Generator) -> int:
    """:func:`run_quantum_batch` on one input tuple."""
    return int(run_quantum_batch(task, [inputs], visibility, rng)[0])


def quantum_fidelity(task: Task, n_parties: int) -> float:
    """Fidelity of the single-qubit protocol: 1 for A, pi/4 for B, any N."""
    if n_parties < 1:
        raise ValueError("n_parties must be >= 1")
    return 1.0 if task is Task.A else math.pi / 4.0
