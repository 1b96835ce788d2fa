"""Success estimation, binomial errors, sigma violations and block histograms.

The error model is the plain binomial (Wald) standard error
sqrt(p(1-p)/n), which reproduces the published uncertainties; Wilson
intervals are available but not the default.  Histograms mimic the published
presentation: accepted runs are cut into consecutive blocks, each block
contributes its success fraction, and the fractions are binned.  The exact
published block structure is not recoverable, so block size is a parameter
(default 500) and comparisons are made in moments, not bar heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiment import Runs
from .tasks import real_in, whole_array, whole_count

DEFAULT_BLOCK_SIZE = 500


@dataclass(frozen=True)
class SuccessStats:
    """Accepted-run tally with its standard error.

    :meth:`from_counts` fills sigma with the Wald value sqrt(p(1-p)/n);
    direct construction accepts an externally quoted sigma (e.g. a published
    rounded uncertainty).  p_hat is always successes/n.
    """

    n: int
    successes: int
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "n", whole_count("n", self.n, 1))
        object.__setattr__(self, "successes", whole_count("successes", self.successes))
        if self.successes > self.n:
            raise ValueError("successes must lie in [0, n]")
        object.__setattr__(self, "sigma", real_in("sigma", self.sigma, 0.0))

    @property
    def p_hat(self) -> float:
        return self.successes / self.n

    @classmethod
    def from_counts(cls, n: int, successes: int) -> "SuccessStats":
        p = cls(n, successes, sigma=0.0).p_hat  # checks the counts before dividing by n
        return cls(n, successes, sigma=math.sqrt(p * (1.0 - p) / n))


def success_stats(runs: Runs) -> SuccessStats:
    """Success statistics over the accepted windows of a window log."""
    accepted = runs.accepted
    n = int(np.count_nonzero(accepted))
    if not n:
        raise ValueError("no accepted runs")
    return SuccessStats.from_counts(n=n, successes=int(np.count_nonzero(runs.correct & accepted)))


def sigma_violation(stats: SuccessStats, classical_p: float) -> float:
    """How many standard errors the estimate sits above the classical bound."""
    if stats.sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return (stats.p_hat - real_in("classical_p", classical_p, 0.0, 1.0)) / stats.sigma


def wilson_interval(stats: SuccessStats, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval, the optional alternative to the Wald error; z > 0 and finite."""
    n, p, z = stats.n, stats.p_hat, real_in("z", z, 0.0, open_low=True)
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


@dataclass(frozen=True, eq=False)
class Histogram:
    """Binned per-block success fractions."""

    bin_edges: np.ndarray
    counts: np.ndarray
    block_size: int

    def __post_init__(self):
        object.__setattr__(self, "counts", whole_array("counts", self.counts, 0, None))
        edges = np.asarray(self.bin_edges)
        if edges.ndim != 1 or edges.dtype.kind not in "biuf" or not np.isfinite(edges).all():
            raise ValueError("bin_edges must be a 1-D array of finite numbers")
        if self.counts.ndim != 1 or len(self.counts) != len(edges) - 1:
            raise ValueError("counts must be a 1-D array, one entry shorter than bin_edges")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        object.__setattr__(self, "block_size", whole_count("block_size", self.block_size, 1))
        object.__setattr__(self, "bin_edges", edges.astype(float))

    @property
    def n_blocks(self) -> int:
        return int(self.counts.sum())


def block_fractions(runs: Runs, block_size: int) -> np.ndarray:
    """Success fraction of each full consecutive block of accepted runs.

    Trailing runs beyond the last full block are dropped, so the number of
    fractions is floor(n/block_size); the mean of the fractions matches the
    overall estimate exactly when block_size divides n.
    """
    block_size = whole_count("block_size", block_size, 1)
    outcomes = runs.correct[runs.accepted].astype(float)
    n_blocks = len(outcomes) // block_size
    if n_blocks < 1:
        raise ValueError(f"need at least {block_size} accepted runs for one block")
    trimmed = outcomes[: n_blocks * block_size]
    return trimmed.reshape(n_blocks, block_size).mean(axis=1)


def block_histogram(
    runs: Runs,
    block_size: int = DEFAULT_BLOCK_SIZE,
    bin_width: float = 0.01,
) -> Histogram:
    """Histogram of per-block success fractions over [0, 1]."""
    bin_width = real_in("bin_width", bin_width, 0.0, 1.0, open_low=True)
    fractions = block_fractions(runs, block_size)
    n_bins = math.ceil(1.0 / bin_width - 1e-9)
    edges = np.linspace(0.0, n_bins * bin_width, n_bins + 1)
    counts, _ = np.histogram(fractions, bins=edges)
    return Histogram(bin_edges=edges, counts=counts, block_size=block_size)
