import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qccp import (
    Histogram,
    Runs,
    SuccessStats,
    binomial_probability,
    block_fractions,
    block_histogram,
    sigma_violation,
    success_stats,
    wilson_interval,
)


def make_records(outcomes, accepted=None):
    correct = np.asarray(outcomes, dtype=bool)
    acc = np.ones(len(correct), dtype=bool) if accepted is None else np.asarray(accepted)
    return Runs(
        inputs=np.zeros((len(correct), 2), dtype=np.int64),
        trigger_count=acc.astype(np.int64),
        detected=acc,
        answer=np.where(correct, 1, -1),
        truth=np.ones(len(correct), dtype=np.int64),
    )


def bernoulli_records(p, n, seed):
    rng = np.random.default_rng(seed)
    return make_records(rng.random(n) < p)


class TestSuccessStats:
    def test_published_sigma_a(self):
        stats = SuccessStats.from_counts(6692, 4758)  # p_hat ~ 0.711
        assert stats.p_hat == pytest.approx(0.711, abs=1e-4)
        assert stats.sigma == pytest.approx(0.00554, abs=5e-5)

    def test_published_sigma_b(self):
        stats = SuccessStats.from_counts(18169, 12155)  # p_hat ~ 0.669
        assert stats.p_hat == pytest.approx(0.669, abs=1e-4)
        assert stats.sigma == pytest.approx(0.00349, abs=5e-5)

    def test_all_correct(self):
        stats = success_stats(make_records([True] * 40))
        assert (stats.n, stats.successes, stats.p_hat, stats.sigma) == (40, 40, 1.0, 0.0)

    def test_counts_only_accepted_runs(self):
        records = make_records([True, False, True, True], accepted=[True, True, False, True])
        stats = success_stats(records)
        assert stats.n == 3 and stats.successes == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            success_stats(make_records([]))
        with pytest.raises(ValueError):
            success_stats(make_records([True], accepted=[False]))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            SuccessStats.from_counts(0, 0)
        with pytest.raises(ValueError):
            SuccessStats.from_counts(5, 6)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan])
    def test_quoted_sigma_must_be_non_negative(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            SuccessStats(n=10, successes=5, sigma=sigma)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf])
    def test_quoted_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be non-negative and finite"):
            SuccessStats(n=10, successes=5, sigma=sigma)

    @given(st.integers(1, 2000), st.data())
    def test_wald_formula(self, n, data):
        successes = data.draw(st.integers(0, n))
        stats = SuccessStats.from_counts(n, successes)
        p = successes / n
        assert stats.p_hat == p
        assert stats.sigma == pytest.approx(math.sqrt(p * (1 - p) / n), abs=1e-15)


class TestSigmaViolation:
    def test_published_violations(self):
        # using the published rounded uncertainties as quoted
        stats_a = SuccessStats(n=6692, successes=4758, sigma=0.005)
        assert stats_a.p_hat == 4758 / 6692
        assert sigma_violation(stats_a, 0.625) == pytest.approx(17.2, abs=0.1)
        stats_b = SuccessStats(n=18169, successes=12155, sigma=0.003)
        assert sigma_violation(stats_b, 0.582) == pytest.approx(29.0, abs=0.1)

    def test_zero_at_the_bound(self):
        stats = SuccessStats.from_counts(1000, 625)
        assert sigma_violation(stats, 0.625) == 0.0

    def test_zero_sigma_rejected(self):
        stats = success_stats(make_records([True] * 10))
        with pytest.raises(ValueError):
            sigma_violation(stats, 0.5)

    def test_invariant_under_consistent_relabeling(self):
        # flipping every answer and truth together leaves the statistic alone
        records = bernoulli_records(0.7, 500, seed=1)
        flipped = dataclasses.replace(records, answer=-records.answer, truth=-records.truth)
        assert sigma_violation(success_stats(records), 0.625) == sigma_violation(
            success_stats(flipped), 0.625
        )


class TestBinomialProbability:
    PREDICATES = {
        "all": lambda k: True,
        "none": lambda k: False,
        "even": lambda k: k % 2 == 0,
        "at-most-2": lambda k: k <= 2,
        "band": lambda k: 3 <= k <= 5,
        "top": lambda k: k >= 9,
    }

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    @pytest.mark.parametrize("n", [0, 1, 4, 12])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.625, 0.97, 1.0])
    def test_matches_exact_enumeration(self, name, n, p):
        predicate = self.PREDICATES[name]
        q = Fraction(p)
        want = sum(math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1) if predicate(k))
        assert binomial_probability(n, p, predicate) == pytest.approx(float(want), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n, p", [(6692, 0.7108), (18169, 0.6703), (1000, 1e-3), (50, 0.5)])
    def test_matches_scipy(self, n, p):
        binom = pytest.importorskip("scipy.stats").binom
        ks = np.arange(n + 1)
        sigma = math.sqrt(p * (1 - p) / n)
        for predicate in (
            lambda k: k <= n * p,
            lambda k: k % 3 == 0,
            lambda k: abs(k / n - p) < 1.5 * sigma,
            lambda k: k >= n * p + 4 * sigma * n,
        ):
            mask = np.array([predicate(k) for k in ks])
            want = float(binom.pmf(ks[mask], n, p).sum())
            assert binomial_probability(n, p, predicate) == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_far_tail_keeps_its_relative_precision(self):
        # about 1e-19, from terms whose binomial coefficients reach 1e600
        want = Fraction(sum(math.comb(2000, k) for k in range(1200, 2001)), 2**2000)
        assert binomial_probability(2000, 0.5, lambda k: k >= 1200) == pytest.approx(float(want), rel=1e-12)

    def test_whole_distribution_sums_to_one(self):
        assert binomial_probability(18169, 0.6703, lambda k: True) == pytest.approx(1.0, abs=1e-12)


class TestWilson:
    def test_contains_the_estimate_and_stays_in_range(self):
        stats = SuccessStats.from_counts(200, 150)
        lo, hi = wilson_interval(stats, z=2.0)
        assert 0.0 <= lo < stats.p_hat < hi <= 1.0

    def test_degenerate_counts_stay_bounded(self):
        lo, hi = wilson_interval(SuccessStats.from_counts(50, 50), z=2.0)
        assert hi <= 1.0 and lo < 1.0

    @pytest.mark.parametrize("z", [-1.0, 0.0, -0.0, math.nan, math.inf])
    def test_z_must_be_positive_and_finite(self, z):
        with pytest.raises(ValueError, match="z must be positive"):
            wilson_interval(SuccessStats.from_counts(100, 70), z=z)


class TestBlockHistogram:
    def test_all_correct_single_occupied_bin_at_one(self):
        hist = block_histogram(make_records([True] * 200), block_size=50, bin_width=0.01)
        assert hist.n_blocks == 4
        occupied = np.nonzero(hist.counts)[0]
        assert len(occupied) == 1
        assert hist.bin_edges[occupied[0] + 1] >= 1.0  # the bin containing 1.0

    def test_single_block_is_a_point_mass_at_p_hat(self):
        records = bernoulli_records(0.7, 400, seed=2)
        stats = success_stats(records)
        hist = block_histogram(records, block_size=400, bin_width=0.01)
        assert hist.n_blocks == 1
        idx = np.nonzero(hist.counts)[0][0]
        assert hist.bin_edges[idx] <= stats.p_hat <= hist.bin_edges[idx + 1]

    def test_mass_conservation_with_remainder(self):
        records = bernoulli_records(0.6, 1234, seed=3)
        hist = block_histogram(records, block_size=100, bin_width=0.05)
        assert hist.n_blocks == 12  # floor(1234/100), trailing 34 dropped

    def test_exact_split_means_match(self):
        records = bernoulli_records(0.7, 5000, seed=4)
        stats = success_stats(records)
        fractions = block_fractions(records, 500)
        assert np.mean(fractions) == pytest.approx(stats.p_hat, abs=1e-12)

    def test_block_spread_matches_binomial_oracle(self):
        # 200 blocks of 500 runs at the published task A operating point
        p = 0.7106
        records = bernoulli_records(p, 100_000, seed=5)
        fractions = block_fractions(records, 500)
        assert len(fractions) == 200
        sigma_block = math.sqrt(p * (1 - p) / 500)
        assert abs(np.mean(fractions) - p) < 3 * sigma_block / math.sqrt(200)
        assert np.std(fractions, ddof=1) == pytest.approx(sigma_block, rel=0.2)

    def test_too_few_records_for_one_block(self):
        with pytest.raises(ValueError):
            block_histogram(make_records([True] * 10), block_size=50)

    def test_bad_parameters(self):
        records = make_records([True] * 10)
        with pytest.raises(ValueError):
            block_histogram(records, block_size=0)
        with pytest.raises(ValueError):
            block_histogram(records, block_size=5, bin_width=0.0)

    def test_histogram_type_validation(self):
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([1, 2]), block_size=5)
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 0.0]), counts=np.array([1]), block_size=5)

    @pytest.mark.parametrize("counts, block_size, match", [
        ([-3], 1, "counts"), ([1.7], 1, "counts"), ([1], 1.5, "block_size"),
    ])
    def test_histogram_refuses_bad_counts_and_block_size(self, counts, block_size, match):
        with pytest.raises(TypeError if block_size == 1.5 else ValueError, match=match):
            Histogram(bin_edges=[0.0, 1.0], counts=counts, block_size=block_size)

    @pytest.mark.parametrize("edges", [[0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0]])
    def test_histogram_refuses_non_finite_edges(self, edges):
        with pytest.raises(ValueError, match="finite"):
            Histogram(bin_edges=edges, counts=[1] * (len(edges) - 1), block_size=1)

    @pytest.mark.parametrize("edges, counts, name", [
        ([[0, 1], [1, 2]], [1], "bin_edges"), ([0, 1, 2], [[1], [2]], "counts"), (1.0, [1], "bin_edges"),
        ([0.0, 1.0], 1, "counts"),
    ])
    def test_histogram_refuses_arrays_that_are_not_1d(self, edges, counts, name):
        with pytest.raises(ValueError, match=f"^{name} must be a 1-D array"):
            Histogram(bin_edges=edges, counts=counts, block_size=1)
