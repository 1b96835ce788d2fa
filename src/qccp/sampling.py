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

from .tasks import ROW_BLOCK, Task, accept_below, as_task, row_sum, whole_count

MAX_ENUM_PARTIES = 10
DEFAULT_MAX_REJECTION_ROUNDS = 10_000
MIN_PROPOSALS = 16  # per rejection round


@dataclass(frozen=True)
class RandomStream:
    """Reproducible random source addressed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, whole_count(name, getattr(self, name)))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


def sample_a(n_parties: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` uniform even-sum quaternary tuples, as a (size, N) int array.

    The first N-1 digits are i.i.d. uniform on {0..3}; the last digit is
    drawn uniformly from the two values that fix the parity, which makes the
    distribution exactly uniform over the 4^N/2 admissible tuples.
    """
    n_parties = whole_count("n_parties", n_parties, 1)
    size = whole_count("size", size)
    out = np.empty((size, n_parties), dtype=np.int64)
    out[:, : n_parties - 1] = rng.integers(0, 4, size=(size, n_parties - 1))
    parity = row_sum(out[:, : n_parties - 1]) & 1
    out[:, n_parties - 1] = parity + 2 * rng.integers(0, 2, size=size)
    return out


def _propose_b(n_parties: int, rng: np.random.Generator, count: int, limit: int | None = None):
    """One rejection round: uniform proposals and their accepted subset.

    The round draws ``count`` rows of N doubles, then ``count`` acceptance
    doubles, one generator word each.  ``random`` scaled in place by 2 pi
    gives the same bits as ``uniform(0, 2 pi)``, which computes 0 + 2 pi * u;
    :class:`qccp.experiment._Walk` replays exactly these doubles.  The round
    runs ROW_BLOCK rows at a time through one reused buffer: a block's
    proposals come from ``rng`` and its acceptance doubles from a copy of
    ``rng`` moved ahead by count * N doubles (:func:`_skip`), so no array
    of the whole round is made.  Each proposal is kept when its acceptance
    double is below |cos| of its row sum, decided by
    :func:`qccp.tasks.accept_below` exactly as with float64 cosines, and
    the kept rows are copied into the result as they come.  Only the first
    ``limit`` accepted rows are returned, when one is given; the round
    stops deciding once it holds them, and ``rng`` still ends in the state
    that the whole round leaves.
    """
    ahead = np.random.Generator(type(rng.bit_generator)(0))  # the seed is overwritten at once
    ahead.bit_generator.state = rng.bit_generator.state
    block = np.empty((max(1, min(count, ROW_BLOCK)), n_parties))  # _skip steps by its size
    _skip(ahead, count * n_parties, block)
    out = np.empty((count if limit is None else min(count, limit), n_parties))
    got = decided = 0
    while decided < count and got < len(out):
        proposals = block[: count - decided]
        rng.random(out=proposals)
        proposals *= 2.0 * math.pi
        keep, _ = accept_below(ahead.random(len(proposals)), proposals, np.abs)
        kept = np.count_nonzero(keep)
        if kept > len(out) - got:
            kept = len(out) - got
            keep = keep[: np.flatnonzero(keep)[kept]]  # cut just before acceptance kept + 1
        np.compress(keep, proposals, axis=0, out=out[got : got + kept])
        got += kept
        decided += len(proposals)
    _skip(ahead, count - decided, block)
    rng.bit_generator.state = ahead.bit_generator.state
    if got < len(out):
        out.resize((got, n_parties), refcheck=False)  # gives back the tail; no view of out is left
    return out


def _skip(rng: np.random.Generator, doubles: int, block: np.ndarray) -> None:
    """Move ``rng`` ahead by ``doubles`` calls of ``random``, as if they were drawn.

    PCG64 and PCG64DXSM jump with ``advance`` (one word per double), which
    also clears the spare 32-bit word that ``integers`` can leave in the
    state; ``random`` never touches that word, so it is carried over.
    Other generators draw and drop the doubles, ``block`` at a time.
    """
    bits = rng.bit_generator
    if isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        before = bits.state
        bits.advance(doubles)
        bits.state = {**bits.state, "has_uint32": before["has_uint32"], "uinteger": before["uinteger"]}
        return
    flat = block.reshape(-1)
    for lo in range(0, doubles, len(flat)):
        rng.random(out=flat[: doubles - lo])


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
    n_parties = whole_count("n_parties", n_parties, 1)
    size = whole_count("size", size)
    max_rounds = whole_count("max_rounds", max_rounds)
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
    n_parties = whole_count("n_parties", n_parties, 1)
    if n_parties > MAX_ENUM_PARTIES:
        raise ValueError(f"enumeration supports 1 <= N <= {MAX_ENUM_PARTIES}")
    digits = np.arange(4**n_parties)[:, None] // 4 ** np.arange(n_parties - 1, -1, -1) % 4
    tuples = digits[digits.sum(axis=1) % 2 == 0]
    return tuples, np.full(len(tuples), 2.0 / 4.0**n_parties)


def sample_inputs(task: Task, n_parties: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Task-dispatching sampler used by Monte Carlo and experiment code: (size, N) rows."""
    if as_task(task) is Task.A:
        return sample_a(n_parties, rng, size=size)
    return sample_b(n_parties, rng, size=size)
