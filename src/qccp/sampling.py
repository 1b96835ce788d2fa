"""Seeded input generation and exhaustive enumeration for both tasks.

All randomness flows through numpy Generators created from a
:class:`RandomStream`, a (seed, stream_id) pair.  Equal pairs reproduce the
same draw sequence bit-for-bit across runs and platforms; distinct stream ids
give statistically independent streams, which is how parallel workers are
meant to split work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tasks import Task, accept_below, row_sum

MAX_ENUM_PARTIES = 10
DEFAULT_MAX_REJECTION_ROUNDS = 10_000
MIN_PROPOSALS = 16  # per rejection round


@dataclass(frozen=True)
class RandomStream:
    """Reproducible random source addressed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


def sample_a(n_parties: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` uniform even-sum quaternary tuples, as a (size, N) int array.

    The first N-1 digits are i.i.d. uniform on {0..3}; the last digit is
    drawn uniformly from the two values that fix the parity, which makes the
    distribution exactly uniform over the 4^N/2 admissible tuples.
    """
    if n_parties < 1:
        raise ValueError("n_parties must be >= 1")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    out = np.empty((size, n_parties), dtype=np.int64)
    out[:, : n_parties - 1] = rng.integers(0, 4, size=(size, n_parties - 1))
    parity = row_sum(out[:, : n_parties - 1]) & 1
    out[:, n_parties - 1] = parity + 2 * rng.integers(0, 2, size=size)
    return out


def _propose_b(n_parties: int, rng: np.random.Generator, count: int, limit: int | None = None):
    """One rejection round: uniform proposals and their accepted subset.

    Draws ``count`` rows of N doubles, then ``count`` acceptance doubles.
    ``random`` scaled in place by 2 pi gives the same bits as
    ``uniform(0, 2 pi)``, which computes 0 + 2 pi * u, and leaves the
    generator in the same state; :class:`qccp.experiment._Walk` replays
    exactly these words.  Each proposal is kept when its acceptance double
    is below |cos| of its row sum, decided block by block by
    :func:`qccp.tasks.accept_below` exactly as with float64 cosines.  Only
    the first ``limit`` accepted rows are returned, when one is given; the
    draws do not depend on it.
    """
    proposals = rng.random((count, n_parties))
    proposals *= 2.0 * math.pi
    # no name holds the acceptance uniforms, so they are freed before np.compress allocates
    keep, _ = accept_below(rng.random(count), proposals, np.abs)
    if limit is not None and np.count_nonzero(keep) > limit:
        keep = keep[: np.flatnonzero(keep)[limit]]  # cut just before acceptance limit + 1
    return np.compress(keep, proposals, axis=0)


def sample_b(
    n_parties: int,
    rng: np.random.Generator,
    size: int,
    max_rounds: int = DEFAULT_MAX_REJECTION_ROUNDS,
) -> np.ndarray:
    """Draw ``size`` tuples from the task B density by rejection sampling, as a (size, N) array.

    Proposals are uniform on [0, 2*pi)^N and accepted with probability
    |cos(sum X)|, so the mean acceptance rate is 2/pi.  Each round is one
    :func:`_propose_b` call, whose draws are bit for bit those of
    ``rng.uniform(0, 2 pi, (count, N))`` then ``rng.random(count)``; rounds
    run until ``size`` rows are accepted.  ``max_rounds`` caps their number:
    a request still short after that many rounds signals a broken generator.
    """
    if n_parties < 1:
        raise ValueError("n_parties must be >= 1")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    chunks = [np.empty((0, n_parties))]  # size=0 draws nothing and still concatenates
    got = 0
    for _ in range(max_rounds):
        if got >= size:
            break
        accepted = _propose_b(n_parties, rng, proposals_per_round(size - got), size - got)
        chunks.append(accepted)
        got += len(accepted)
    if got < size:
        raise RuntimeError(f"rejection sampler exhausted {max_rounds} rounds; generator broken?")
    return chunks[1] if len(chunks) == 2 else np.concatenate(chunks)  # one round: no copy


def proposals_per_round(needed: int) -> int:
    """Proposals in a rejection round that still needs ``needed`` acceptances."""
    return max(MIN_PROPOSALS, int(needed / (2.0 / math.pi) * 1.1))


def enumerate_a(n_parties: int) -> tuple[np.ndarray, np.ndarray]:
    """All even-sum quaternary tuples with their uniform weights 2/4^N.

    Returns (tuples, weights) with tuples of shape (4^N/2, N) in
    lexicographic order.  Supports N <= 10 (524288 tuples); larger N should
    be sampled instead.
    """
    if not 1 <= n_parties <= MAX_ENUM_PARTIES:
        raise ValueError(f"enumeration supports 1 <= N <= {MAX_ENUM_PARTIES}")
    digits = np.arange(4**n_parties)[:, None] // 4 ** np.arange(n_parties - 1, -1, -1) % 4
    tuples = digits[digits.sum(axis=1) % 2 == 0]
    return tuples, np.full(len(tuples), 2.0 / 4.0**n_parties)


def sample_inputs(task: Task, n_parties: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Task-dispatching sampler used by Monte Carlo and experiment code: (size, N) rows."""
    if task is Task.A:
        return sample_a(n_parties, rng, size=size)
    return sample_b(n_parties, rng, size=size)
