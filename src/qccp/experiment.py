"""Heralded-single-photon experiment model with guess-on-failure accounting.

Each run samples an input tuple, sets the phases, and opens a collection
window.  Trigger photons arrive Poisson(rate * window); only windows with
exactly one trigger are accepted, so the window is best chosen to maximise
P(count = 1), i.e. window = 1/rate with acceptance e^-1.  Within an accepted
run the protocol photon is detected with probability eta (the
coincidence/single ratio).  On detection the answer comes from the
visibility-limited protocol and is correct with conditional probability
gamma; otherwise the last party guesses a fair coin.  Nothing accepted is
ever discarded, which yields the closed form

    P_exp = eta * gamma + (1 - eta) / 2       F_exp = eta * (2 gamma - 1).

All optics below the aggregate (rate, eta, visibility) level is out of scope.
The published parameter sets for the N=5 runs ship as presets A and B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .quantum import _coherence
from .sampling import RandomStream, sample_inputs
from .tasks import Task, task_value_batch


class WindowChoice(NamedTuple):
    window: float
    accept_prob: float


def optimize_window(trigger_rate: float) -> WindowChoice:
    """Window maximising P(exactly one Poisson trigger): 1/rate, prob e^-1."""
    if trigger_rate <= 0.0:
        raise ValueError("trigger_rate must be positive")
    return WindowChoice(1.0 / trigger_rate, math.exp(-1.0))


def gamma_from_visibility(task: Task, visibility: float) -> float:
    """Conditional correctness given detection, averaged over the inputs.

    With coherence term V cos(sum phases): gamma_A = (1+V)/2 and
    gamma_B = (1 + V pi/4)/2; V = 1 recovers the ideal protocol limits.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if task is Task.A:
        return (1.0 + visibility) / 2.0
    return (1.0 + visibility * math.pi / 4.0) / 2.0


def visibility_from_gamma(task: Task, gamma: float) -> float:
    """Exact inverse of :func:`gamma_from_visibility`; errors off-range."""
    top = gamma_from_visibility(task, 1.0)
    if not 0.5 <= gamma <= top:
        raise ValueError(f"gamma must lie in [0.5, {top:.6f}] for task {task.value}")
    if task is Task.A:
        return 2.0 * gamma - 1.0
    return (2.0 * gamma - 1.0) / (math.pi / 4.0)


@dataclass(frozen=True)
class ExperimentParams:
    """Aggregate description of one experimental configuration."""

    task: Task
    n_parties: int
    trigger_rate: float  # trigger events per second
    window: float  # collection window, seconds
    eta: float  # heralded-photon detection probability
    visibility: float
    n_target: int  # accepted runs to collect

    def __post_init__(self):
        if self.n_parties < 1:
            raise ValueError("n_parties must be >= 1")
        if self.trigger_rate <= 0.0 or self.window <= 0.0:
            raise ValueError("trigger_rate and window must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.n_target < 1:
            raise ValueError("n_target must be >= 1")

    @property
    def gamma(self) -> float:
        return gamma_from_visibility(self.task, self.visibility)

    @classmethod
    def from_gamma(
        cls,
        task: Task,
        n_parties: int,
        eta: float,
        gamma: float,
        n_target: int,
        trigger_rate: float = 5000.0,
        window: float | None = None,
    ) -> "ExperimentParams":
        if window is None:
            window = optimize_window(trigger_rate).window
        return cls(
            task=task,
            n_parties=n_parties,
            trigger_rate=trigger_rate,
            window=window,
            eta=eta,
            visibility=visibility_from_gamma(task, gamma),
            n_target=n_target,
        )


# published N=5 parameter sets: (eta, gamma, accepted-run count)
PRESETS: dict[str, ExperimentParams] = {
    "A": ExperimentParams.from_gamma(Task.A, 5, eta=0.452, gamma=0.966, n_target=6692),
    "B": ExperimentParams.from_gamma(Task.B, 5, eta=0.471, gamma=0.858, n_target=18169),
}


class Run(NamedTuple):
    """One window of a :class:`Runs` log, as plain Python values."""

    inputs: tuple
    trigger_count: int
    accepted: bool
    detected: bool
    guessed: bool
    answer: int
    truth: int


_COLUMN_TYPES = (
    ("trigger_count", np.int64),
    ("accepted", bool),
    ("detected", bool),
    ("guessed", bool),
    ("answer", np.int64),
    ("truth", np.int64),
)


@dataclass(frozen=True, eq=False)
class Runs:
    """Window log in columns: one entry per collection window, in order.

    ``inputs`` has shape (windows, N), task A digits as int64 and task B
    phases as float64.  Unaccepted windows still carry a coin-flip answer;
    statistics use the accepted subset only, see
    :func:`qccp.stats.success_stats`.  Iterating yields :class:`Run` rows.
    """

    inputs: np.ndarray
    trigger_count: np.ndarray
    accepted: np.ndarray
    detected: np.ndarray
    guessed: np.ndarray
    answer: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a (windows, N) array")
        object.__setattr__(self, "inputs", inputs)
        for name, dtype in _COLUMN_TYPES:
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (len(inputs),):
                raise ValueError(f"{name} needs one entry per window")
            object.__setattr__(self, name, column)
        if np.any(self.accepted != (self.trigger_count == 1)):
            raise ValueError("a window is accepted exactly when it has one trigger")
        if np.any(self.detected & ~self.accepted):
            raise ValueError("only accepted windows can be detected")
        if np.any(self.guessed == self.detected):
            raise ValueError("a window guesses exactly when it is not detected")
        if np.any(np.abs(self.answer) != 1) or np.any(np.abs(self.truth) != 1):
            raise ValueError("answer and truth must be +-1 signs")

    @classmethod
    def concat(cls, parts: Sequence["Runs"]) -> "Runs":
        """The windows of ``parts`` one after another."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    @property
    def correct(self) -> np.ndarray:
        return self.answer == self.truth

    def __len__(self) -> int:
        return len(self.trigger_count)

    def __iter__(self) -> Iterator[Run]:
        columns = [getattr(self, f.name).tolist() for f in fields(self)]
        columns[0] = map(tuple, columns[0])
        return map(Run._make, zip(*columns))


def predicted_success(eta: float, gamma: float) -> float:
    """Closed-form success probability eta*gamma + (1-eta)/2."""
    if not 0.0 <= eta <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValueError("eta and gamma must lie in [0, 1]")
    return eta * gamma + (1.0 - eta) * 0.5


def experimental_fidelity(eta: float, gamma: float) -> float:
    """Closed-form fidelity eta*(2*gamma - 1) = 2*predicted_success - 1."""
    if not 0.0 <= eta <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValueError("eta and gamma must lie in [0, 1]")
    return eta * (2.0 * gamma - 1.0)


def _simulate(params: ExperimentParams, rng: np.random.Generator, max_windows: int) -> Runs:
    """Windows until n_target are accepted or max_windows have run.

    The loop only makes the generator calls of :func:`simulate_run`, in its
    order, and stores the draws in columns; truth, detection and answers are
    then computed once over the columns.
    """
    mu = params.trigger_rate * params.window
    capacity = min(max_windows, 1024)
    dtype = np.int64 if params.task is Task.A else np.float64
    inputs = np.zeros((capacity, params.n_parties), dtype=dtype)
    counts = np.zeros(capacity, dtype=np.int64)
    u_det = np.zeros(capacity)  # detection draws, accepted windows only
    u_ans = np.zeros(capacity)  # answer draws
    windows = n_accepted = 0
    while n_accepted < params.n_target and windows < max_windows:
        if windows == len(counts):
            inputs, counts, u_det, u_ans = (
                np.concatenate([c, np.zeros_like(c)]) for c in (inputs, counts, u_det, u_ans)
            )
        inputs[windows] = sample_inputs(params.task, params.n_parties, rng)
        counts[windows] = count = rng.poisson(mu)
        if count == 1:
            n_accepted += 1
            u_det[windows] = rng.random()
        u_ans[windows] = rng.random()
        windows += 1

    inputs, counts, u_det, u_ans = (c[:windows] for c in (inputs, counts, u_det, u_ans))
    truth = task_value_batch(params.task, inputs)
    accepted = counts == 1
    detected = accepted & (u_det < params.eta)
    # run_quantum's own arithmetic, row by row, so every answer matches it bit for bit
    coherence = np.array([_coherence(params.task, row) for row in inputs[detected].tolist()])
    p_plus = np.full(windows, 0.5)
    p_plus[detected] = (1.0 + params.visibility * coherence) / 2.0
    answer = np.where(u_ans < p_plus, 1, -1)
    return Runs(inputs, counts, accepted, detected, ~detected, answer, truth)


def simulate_run(params: ExperimentParams, rng: np.random.Generator) -> Runs:
    """Simulate one window, returned as a one-window :class:`Runs`.

    Draw order, fixed for seeding:

    1. the input tuple, one :func:`~qccp.sampling.sample_inputs` call;
    2. the trigger count, one ``rng.poisson(rate * window)``;
    3. if exactly one trigger arrived (accepted), one ``rng.random()``,
       detected when below eta;
    4. one ``rng.random()`` for the answer: +1 when below
       P(+) = (1 + V cos(sum phases))/2 if detected, below 1/2 otherwise.

    Unaccepted windows still draw the coin-flip answer of step 4 so every
    window carries an answer; they are excluded from all statistics.
    """
    return _simulate(params, rng, max_windows=1)


def simulate_experiment(params: ExperimentParams, rng: np.random.Generator) -> Runs:
    """Run windows until n_target accepted runs are collected.

    Each window makes the draws of :func:`simulate_run`, in its order, so
    the result equals that many :func:`simulate_run` calls on the same
    generator, concatenated.  Returns every window in order (accepted and
    not); statistics must be computed over the accepted subset only, see
    :func:`qccp.stats.success_stats`.
    """
    mu = params.trigger_rate * params.window
    p_single = mu * math.exp(-mu)
    if p_single < 1e-6:
        raise ValueError(f"P(single trigger) = {p_single:.2e}; window unusable")
    runs = _simulate(params, rng, max_windows=int(50 * params.n_target / p_single) + 1000)
    if np.count_nonzero(runs.accepted) < params.n_target:
        raise RuntimeError("window budget exhausted; acceptance rate broken?")
    return runs


def split_targets(n_target: int, streams: int) -> list[int]:
    """Deterministic partition of the accepted-run budget across streams."""
    if streams < 1 or n_target < streams:
        raise ValueError("need 1 <= streams <= n_target")
    base = n_target // streams
    extra = n_target % streams
    return [base + (1 if i < extra else 0) for i in range(streams)]


def stream_runs(
    params: ExperimentParams, seed: int, streams: int = 1
) -> list[tuple[int, Runs]]:
    """Per-stream (stream_id, runs) pairs: stream i draws from RandomStream(seed, i).

    The accepted-run budget is split deterministically over the streams, so
    the result is reproducible regardless of how streams would be scheduled.
    """
    chunks: list[tuple[int, Runs]] = []
    for i, target in enumerate(split_targets(params.n_target, streams)):
        part = replace(params, n_target=target)
        chunks.append((i, simulate_experiment(part, RandomStream(seed, i).generator())))
    return chunks
