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

from . import replay, sampling
from .quantum import _answers, _plus, quantum_fidelity
from .sampling import RandomStream
from .tasks import Task, accept_below, as_task, check_domain, real_in, task_value_batch, whole_array, whole_count


class WindowChoice(NamedTuple):
    window: float
    accept_prob: float


def optimize_window(trigger_rate: float) -> WindowChoice:
    """Window maximising P(exactly one Poisson trigger): 1/rate, prob e^-1."""
    trigger_rate = real_in("trigger_rate", trigger_rate, 0.0, open_low=True)
    window = 1.0 / trigger_rate
    if window == math.inf:
        raise ValueError(f"trigger_rate {trigger_rate} is too small: its window 1/rate overflows")
    return WindowChoice(window, math.exp(-1.0))


def gamma_from_visibility(task: Task, visibility: float) -> float:
    """Conditional correctness given detection, averaged over the inputs.

    With coherence term V cos(sum phases), gamma = (1 + V F)/2 for the ideal protocol's
    :func:`~qccp.quantum.quantum_fidelity` F (1 for A, pi/4 for B); V = 1 recovers its limits.
    """
    visibility = real_in("visibility", visibility, 0.0, 1.0)
    return (1.0 + visibility * quantum_fidelity(task, 1)) / 2.0


def visibility_from_gamma(task: Task, gamma: float) -> float:
    """Exact inverse of :func:`gamma_from_visibility`; errors off-range."""
    gamma = real_in(f"gamma (task {as_task(task).value})", gamma, 0.5, gamma_from_visibility(task, 1.0))
    return (2.0 * gamma - 1.0) / quantum_fidelity(task, 1)


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
        as_task(self.task)
        object.__setattr__(self, "n_parties", whole_count("n_parties", self.n_parties, 1))
        object.__setattr__(self, "n_target", whole_count("n_target", self.n_target, 1))
        for name, *interval in (("trigger_rate", 0.0, math.inf, True), ("window", 0.0, math.inf, True),
                                ("eta", 0.0, 1.0), ("visibility", 0.0, 1.0)):
            object.__setattr__(self, name, real_in(name, getattr(self, name), *interval))

    @property
    def gamma(self) -> float:
        return gamma_from_visibility(self.task, self.visibility)


# published N=5 parameter sets (eta, gamma, accepted-run count), at 5000
# triggers per second and the window that rate optimises
PRESETS: dict[str, ExperimentParams] = {
    task.value: ExperimentParams(
        task, 5, 5000.0, optimize_window(5000.0).window,
        eta=eta, visibility=visibility_from_gamma(task, gamma), n_target=n_target,
    )
    for task, eta, gamma, n_target in ((Task.A, 0.452, 0.966, 6692), (Task.B, 0.471, 0.858, 18169))
}


class Run(NamedTuple):
    """One window of a :class:`Runs` log as plain Python values."""

    inputs: tuple
    trigger_count: int
    accepted: bool
    detected: bool
    guessed: bool
    answer: int
    truth: int


@dataclass(frozen=True, eq=False)
class Runs:
    """Window log in columns: one entry per collection window, in order.

    ``inputs`` has shape (windows, N), task A digits as int64 and task B
    phases as float64.  A window is accepted when it has exactly one trigger,
    and guesses when it is not detected.  Unaccepted windows still carry a
    coin-flip answer; statistics use the accepted subset only, see
    :func:`qccp.stats.success_stats`.  Iterating yields :class:`Run` rows.
    """

    inputs: np.ndarray
    trigger_count: np.ndarray
    detected: np.ndarray
    answer: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs)
        try:  # float inputs are task B phases, the others task A digits
            object.__setattr__(self, "inputs", check_domain(Task.B if inputs.dtype.kind == "f" else Task.A, inputs))
        except ValueError as exc:
            raise ValueError(f"inputs must be task A digits or task B phases: {exc}") from None
        # trigger counts >= 0, detection flags 0/1 kept as bool, answer and truth +-1
        for name, *rule in (("trigger_count", 0, None), ("detected", 0, 1, bool), ("answer",), ("truth",)):
            column = whole_array(name, getattr(self, name), *rule)
            if column.shape != (len(self.inputs),):
                raise ValueError(f"{name} needs one entry per window")
            object.__setattr__(self, name, column)
        if np.any(self.detected & ~self.accepted):
            raise ValueError("only accepted windows can be detected")

    @classmethod
    def concat(cls, parts: Sequence["Runs"]) -> "Runs":
        """The windows of ``parts`` one after another."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    @property
    def accepted(self) -> np.ndarray:
        return self.trigger_count == 1

    @property
    def guessed(self) -> np.ndarray:
        return ~self.detected

    @property
    def correct(self) -> np.ndarray:
        return self.answer == self.truth

    def __len__(self) -> int:
        return len(self.trigger_count)

    def __iter__(self) -> Iterator[Run]:
        columns = [getattr(self, name).tolist() for name in Run._fields]
        columns[0] = map(tuple, columns[0])
        return map(Run._make, zip(*columns))


def predicted_success(eta: float, gamma: float) -> float:
    """Closed-form success probability eta*gamma + (1-eta)/2."""
    eta, gamma = real_in("eta", eta, 0.0, 1.0), real_in("gamma", gamma, 0.0, 1.0)
    return eta * gamma + (1.0 - eta) * 0.5


def experimental_fidelity(eta: float, gamma: float) -> float:
    """Closed-form fidelity eta*(2*gamma - 1) = 2*predicted_success - 1."""
    eta, gamma = real_in("eta", eta, 0.0, 1.0), real_in("gamma", gamma, 0.0, 1.0)
    return eta * (2.0 * gamma - 1.0)


# doubles drawn at a time into the engine's buffer, unless one window needs more;
# bounds working memory (see _simulate for the choice)
CHUNK_WORDS = 1 << 16
_TWO_PI = 2.0 * math.pi


class _Walk:
    """Window boundaries in a chunk of doubles, one per generator word, found window by window.

    Per window it reads only the few doubles that decide where the window
    ends: the trigger count's draws.  The input draws are skipped over:
    task A's are a fixed number of words, task B's one rejection round,
    assumed to accept until :meth:`settle` finds otherwise.  Each window is
    logged by its trigger count and its end, the word after its answer
    draw; task B also logs where its last round starts.
    """

    def __init__(self, params: ExperimentParams, max_windows: int, spare: int):
        self.task_a = params.task is Task.A
        self.n = params.n_parties
        self.mu = params.trigger_rate * params.window
        self.proposals = sampling.proposals_per_round(1)  # as sample_b(size=1) draws them
        self.round_words = self.proposals * (self.n + 1)
        self.targets = params.n_target
        self.windows = max_windows
        self.spare = spare  # task A: a 32-bit half left over by the last input draw
        self.reset()

    def reset(self) -> None:
        self.counts: list[int] = []
        self.ends: list[int] = []
        self.starts: list[int] = []  # task B: first word of the last round

    def rewind(self, i: int) -> None:
        """Forget windows i.. of this chunk."""
        self.targets += self.counts[i:].count(1)
        self.windows += len(self.counts) - i
        for log in (self.counts, self.ends, self.starts):
            del log[i:]

    def run(self, d, p: int, end: int) -> int:
        """Walk whole windows from word p of the doubles d[:end]; returns where they end.

        The trigger count is numpy's ``random_poisson``: no draw for mu = 0,
        below 10 the product of uniforms until it reaches exp(-mu), which
        runs here inline, and from 10 on PTRS (:func:`qccp.replay.poisson`).
        """
        task_a, n, mu, round_words = self.task_a, self.n, self.mu, self.round_words
        exp_neg_mu, ptrs = math.exp(-mu), mu >= 10.0
        counts, ends, starts = self.counts, self.ends, self.starts
        targets, windows, spare = self.targets, self.windows, self.spare
        try:
            while targets and windows:
                start = p
                if task_a:
                    take = n - spare  # 32-bit draws still to make, two per word
                    p += (take + 1) >> 1
                else:
                    p += round_words
                if ptrs:
                    if p > end:
                        return start
                    k, p = replay.poisson(d, p, end, mu)  # (-1, end) if d runs out
                else:
                    k = 0
                    if mu > 0.0:
                        prod = 1.0
                        while True:
                            if p >= end:
                                return start
                            prod *= d[p]
                            p += 1
                            if prod <= exp_neg_mu:
                                break
                            k += 1
                # the detection draw if accepted, then the answer draw
                if k == 1:
                    p += 2
                    if p > end:
                        return start
                    targets -= 1
                else:
                    p += 1
                    if p > end:
                        return start
                if task_a:
                    spare = take & 1
                else:
                    starts.append(start)
                counts.append(k)
                ends.append(p)
                windows -= 1
            return p
        finally:
            self.targets, self.windows, self.spare = targets, windows, spare

    def settle(self, d: np.ndarray, p: int) -> tuple[int, np.ndarray]:
        """Check task B's rounds; re-walk from each that rejected every proposal.

        The re-walk starts one round on, so that window takes another round.
        Returns the final position of :meth:`run` and, per window, the
        index of the accepted proposal in its last round.
        """
        checked, first = 0, []
        while True:
            starts = np.array(self.starts[checked:], dtype=np.intp)
            got = _first_accepted(d, starts, self.n, self.proposals)
            rejected = np.flatnonzero(got < 0)
            if not len(rejected):
                return p, np.concatenate(first + [got])
            first.append(got[: rejected[0]])
            checked += int(rejected[0])
            restart = self.starts[checked] + self.round_words
            self.rewind(checked)
            p = self.run(memoryview(d), restart, len(d))


def _first_accepted(d: np.ndarray, starts: np.ndarray, n: int, proposals: int) -> np.ndarray:
    """Index of the first accepted proposal of each task B round, -1 if none is.

    A round at word q is ``sampling._propose_b``: ``proposals`` rows of n
    uniform phases, then one acceptance uniform per row.  Proposal j of
    every round still pending is decided by the sampler's own
    :func:`qccp.tasks.accept_below`, so the float64 answer is replayed.
    """
    first = np.full(len(starts), -1)
    pending = np.arange(len(starts))
    columns = np.arange(n)
    for j in range(proposals):
        if not len(pending):
            break
        at = starts[pending]
        rows = _TWO_PI * d[(at + j * n)[:, None] + columns]
        ok, _ = accept_below(d[at + proposals * n + j], rows, np.abs)
        first[pending[ok]] = j
        pending = pending[~ok]
    return first


def _simulate(params: ExperimentParams, rng: np.random.Generator, max_windows: int) -> Runs:
    """Windows until n_target are accepted or max_windows have run.

    Replays the per-window draws of :func:`simulate_run` from ``random()``
    doubles drawn in bulk: each of the draws is made from one 64-bit word,
    and ``random()`` of a word w is (w >> 11) 2**-53, which keeps every bit
    task A's 32-bit draws read (see :func:`_digits`).  The doubles are drawn
    in chunks into one buffer, each after the doubles the last chunk left
    unread, moved to its front.  A chunk may hold more doubles than the run
    reads, so the generator state is saved before each draw; after the last
    chunk it is restored, and only the words that chunk's windows read are
    drawn again, so the generator ends exactly where the per-window calls
    leave it.  Truth, detection and answers are then computed once over the
    columns.

    The buffer holds CHUNK_WORDS doubles, or the fewest the run can draw if
    that is less.  A draw fills it, or draws the fewest the remaining
    windows can, and at least twice the unread doubles, so a window that did
    not fit soon does; the buffer grows only when that one window needs more
    than it holds.  Each chunk costs a fixed hundred or two numpy calls,
    most of them task B's rejection check.  At 1 << 16 words a chunk holds
    about 650 task B windows, and the preset B run takes about 75 chunks,
    not the 600 of 1 << 13.  1 << 17 ran the preset B engine about 15%
    faster in process (48 against 56 ms), but a benchmark run of both
    presets only about 3% faster, for 1.3 MiB more peak RSS.
    """
    bits = rng.bit_generator
    replay.check_replayable(bits)
    task_a = params.task is Task.A
    n = params.n_parties
    walk = _Walk(params, max_windows, bits.state["has_uint32"] if task_a else 0)
    # the fewest words a window draws: inputs, a trigger draw unless mu = 0, the answer
    fewest = (n // 2 if task_a else walk.round_words) + (walk.mu > 0.0) + 1

    # one float64 row per window: trigger count, detection and answer draws,
    # then task B's phases; one block that doubles, not an array per chunk
    table = np.zeros((min(max_windows, 1024), 3 + (0 if task_a else n)))
    windows = 0
    input_doubles = []  # task A: the doubles of the words sample_a drew, per chunk
    buf = np.empty(min(fewest * walk.windows, CHUNK_WORDS))
    d, p = buf[:0], 0
    while walk.targets and walk.windows:
        tail = d[p:]  # the doubles the last chunk left unread: the start of one window
        kept = len(tail)
        size = max(min(fewest * walk.windows, len(buf) - kept), 2 * kept)
        if kept + size > len(buf):
            buf = np.empty(kept + size)
        buf[:kept] = tail
        saved = bits.state
        rng.random(out=buf[kept : kept + size])
        d = buf[: kept + size]
        spare = walk.spare
        p = walk.run(memoryview(d), 0, len(d))
        if not task_a:
            p, first = walk.settle(d, p)
        added = len(walk.counts)
        if not added:
            continue
        if windows + added > len(table):  # rows past ``windows`` are written before read
            grown = np.empty((max(2 * len(table), windows + added), table.shape[1]))
            grown[:windows] = table[:windows]
            table = grown
        rows = table[windows : windows + added]
        ends = np.array(walk.ends, dtype=np.intp)
        rows[:, 0] = walk.counts
        # the detection draw precedes the answer draw; a window not accepted
        # has none, and its column, which nothing reads, repeats the answer draw
        rows[:, 1] = d[ends - 1 - (rows[:, 0] == 1)]
        rows[:, 2] = d[ends - 1]
        if task_a:
            # a window's input words come first, from the previous window's end;
            # the first i windows of the chunk draw ceil((n i - spare) / 2), so
            # the count per window alternates for odd n and is fixed for even n
            starts = np.concatenate(([0], ends[:-1]))
            drawn = (n * np.arange(added + 1) - spare + 1) >> 1
            at = np.repeat(starts - drawn[:-1], np.diff(drawn)) + np.arange(drawn[-1])
            input_doubles.append(d[at])
        else:
            starts = np.array(walk.starts, dtype=np.intp) + n * first
            rows[:, 3:] = _TWO_PI * d[starts[:, None] + np.arange(n)]
        windows += added
        walk.reset()
    # give back the over-draw: the run ended on a window the last chunk completed, past kept
    bits.state = saved
    bits.random_raw(p - kept, output=False)

    counts = table[:windows, 0].astype(np.int64)
    u_det, u_ans = table[:windows, 1], table[:windows, 2]
    if task_a:
        inputs = _digits(bits, n, windows, np.concatenate(input_doubles))
    else:
        inputs = table[:windows, 3:].copy()
    truth = task_value_batch(params.task, inputs)
    detected = (counts == 1) & (u_det < params.eta)
    answer = np.where(u_ans < 0.5, 1, -1)
    rows = (truth if task_a else inputs)[detected]  # task A's target is its exact coherence
    answer[detected] = _answers(params.task, rows, u_ans[detected], _plus(params.visibility))
    return Runs(inputs, counts, detected, answer, truth)


def _digits(bits: np.random.BitGenerator, n: int, windows: int, drawn: np.ndarray) -> np.ndarray:
    """Task A inputs from the doubles of the words ``sample_a`` drew, and the generator's spare half.

    Each window takes ``integers(0, 4)`` digits then one ``integers(0, 2)``
    parity bit, one 32-bit half of a word each (the top two bits, the top
    bit), the low half first.  A double d of a word w gives d 2**53 =
    w >> 11 exactly, in which the halves' top bits are bits 19-20 and
    51-52 and the high half is bits 21-52.  A spare half left before the
    run comes first; one left after it stays in the generator, as numpy's
    ``has_uint32`` and ``uinteger``.
    """
    state = bits.state
    words = (drawn * 2.0**53).astype(np.int64)  # w >> 11 of each word w
    spare = state["has_uint32"]
    tops = np.empty(spare + 2 * len(words), dtype=np.int64)  # each half's top two bits
    if spare:
        tops[0] = state["uinteger"] >> 30
    tops[spare::2] = (words >> 19) & 3
    tops[spare + 1 :: 2] = words >> 51
    used = windows * n
    halves = tops[:used].reshape(windows, n)
    digits = np.empty((windows, n), dtype=np.int64)
    digits[:, :-1] = halves[:, :-1]
    digits[:, -1] = digits[:, :-1].sum(axis=1) % 2 + 2 * (halves[:, -1] >> 1)
    state["has_uint32"] = len(tops) - used
    if len(words):
        state["uinteger"] = int(words[-1] >> 21)
    bits.state = state
    return digits


def simulate_run(params: ExperimentParams, rng: np.random.Generator) -> Runs:
    """Simulate one window, returned as a one-window :class:`Runs`.

    Draw order, fixed for seeding:

    1. the input tuple, one :func:`~qccp.sampling.sample_inputs` ``(..., size=1)`` call;
    2. the trigger count, one ``rng.poisson(rate * window)``;
    3. if exactly one trigger arrived (accepted), one ``rng.random()``,
       detected when below eta;
    4. one ``rng.random()`` for the answer: +1 when below
       P(+) = (1 + V cos(sum phases))/2 if detected, below 1/2 otherwise.

    Unaccepted windows still draw the coin-flip answer of step 4 so every
    window carries an answer; they are excluded from all statistics.

    This order is the contract, but the engine makes none of these calls:
    it replays them from ``random()`` doubles drawn in bulk, one per 64-bit
    word (:mod:`qccp.replay`), giving the same values and leaving
    ``rng.bit_generator.state`` as the calls would.
    That needs a bit generator with PCG64's word layout: PCG64 (numpy's
    default), PCG64DXSM, SFC64 or Philox; others raise ``TypeError``.
    """
    return _simulate(params, rng, max_windows=1)


def simulate_experiment(params: ExperimentParams, rng: np.random.Generator) -> Runs:
    """Run windows until n_target accepted runs are collected.

    Each window makes the draws of :func:`simulate_run`, in its order, so
    the result, and the generator state after it, equal that many
    :func:`simulate_run` calls on the same generator, concatenated.  The
    draws are replayed from doubles drawn in bulk, with the bit generators
    :func:`simulate_run` lists.  Returns every window in order (accepted and
    not); statistics must be computed over the accepted subset only, see
    :func:`qccp.stats.success_stats`.
    """
    mu = params.trigger_rate * params.window
    p_single = mu * math.exp(-mu)
    if not p_single >= 1e-6:
        raise ValueError(
            f"trigger_rate {params.trigger_rate} and window {params.window} give"
            f" P(single trigger) = {p_single:.2e}; window unusable"
        )
    runs = _simulate(params, rng, max_windows=int(50 * params.n_target / p_single) + 1000)
    if np.count_nonzero(runs.accepted) < params.n_target:
        raise RuntimeError("window budget exhausted; acceptance rate broken?")
    return runs


def split_targets(n_target: int, streams: int) -> list[int]:
    """Deterministic partition of the accepted-run budget across streams."""
    streams = whole_count("streams", streams, 1)
    if streams > n_target:
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
