import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from qccp import (
    CommTree, ProductStrategyA, RandomStream, Task, enumerate_a, fidelity_mc, sample_a, sample_b,
)
from qccp.quantum import run_quantum_batch
from qccp.sampling import _propose_b, proposals_per_round
from qccp import tasks
from qccp.tasks import accept_below, task_value_batch

from oracles import (
    binned_abs_cos_density, enumerate_reduced_a, propose_b_uniform, quadrature_1d, sample_b_uniform,
)

TWO_PI = 2.0 * math.pi


class TestRandomStream:
    def test_equal_streams_reproduce_bit_exactly(self):
        a = sample_a(5, RandomStream(123, 4).generator(), size=1000)
        b = sample_a(5, RandomStream(123, 4).generator(), size=1000)
        assert np.array_equal(a, b)
        xa = sample_b(3, RandomStream(123, 4).generator(), size=1000)
        xb = sample_b(3, RandomStream(123, 4).generator(), size=1000)
        assert np.array_equal(xa, xb)

    def test_distinct_streams_differ(self):
        a = sample_a(5, RandomStream(123, 0).generator(), size=1000)
        b = sample_a(5, RandomStream(123, 1).generator(), size=1000)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_b(2, RandomStream(1, 0).generator(), size=200)
        b = sample_b(2, RandomStream(2, 0).generator(), size=200)
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("sampler", [sample_a, sample_b])
def test_zero_rows_draw_nothing(sampler):
    rng = RandomStream(3, 0).generator()
    before = rng.bit_generator.state
    rows = sampler(4, rng, size=0)
    assert rows.shape == (0, 4)
    assert rows.dtype == (np.int64 if sampler is sample_a else np.float64)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("sampler", [sample_a, sample_b])
def test_negative_size_is_refused_before_any_draw(sampler):
    rng = RandomStream(3, 0).generator()
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="size must be >= 0, got -5"):
        sampler(3, rng, size=-5)
    assert rng.bit_generator.state == before


def test_non_integer_sizes_are_refused_by_name():
    rng = RandomStream(3, 0).generator()
    before = rng.bit_generator.state
    for sampler in (sample_a, sample_b):
        with pytest.raises(TypeError, match="size must be an integer, got 2.5"):
            sampler(5, rng, 2.5)
    with pytest.raises(TypeError, match="n_samples must be an integer, got 10.5"):
        fidelity_mc(ProductStrategyA([[1, -1], [1, 1]]), CommTree.chain(2), Task.A, 10.5, rng)
    assert rng.bit_generator.state == before
    assert sample_a(5, rng, np.int64(3)).shape == sample_b(5, rng, np.uint8(3)).shape == (3, 5)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox,
                  np.random.MT19937]


# every bit generator with and without a spare 32-bit word, but for PCG64 without
# one: that is RandomStream's generator, which the unsuffixed tests take
JUMP_CASES = [
    pytest.param(g, spare, id=f"{g.__name__}-{'spare' if spare else 'clean'}")
    for g in BIT_GENERATORS for spare in (False, True) if (g, spare) != (np.random.PCG64, False)
]


def generator_pair(bit_generator, seed: int, stream: int, spare: bool):
    """Two equal generators of one kind; with ``spare``, after a draw that leaves a spare 32-bit word."""
    pair = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(np.random.SeedSequence(seed, spawn_key=(stream,))))
        if spare:
            rng.integers(0, 4, 3)
        pair.append(rng)
    return pair


def same_state(a, b) -> bool:
    """Equal bit generator states; SFC64's and MT19937's hold arrays, compared element by element."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestSampleA:
    def test_single_party_support(self):
        rng = RandomStream(0, 0).generator()
        draws = sample_a(1, rng, size=4000).ravel()
        assert set(draws.tolist()) == {0, 2}
        assert abs(np.mean(draws == 0) - 0.5) < 3 * math.sqrt(0.25 / 4000)

    def test_every_draw_satisfies_the_promise(self):
        rng = RandomStream(5, 0).generator()
        draws = sample_a(6, rng, size=100_000)
        assert draws.min() >= 0 and draws.max() <= 3
        assert not np.any(draws.sum(axis=1) % 2)

    def test_uniform_over_even_tuples_chi_square(self):
        # N=5: 512 equiprobable tuples, 10^6 draws, 99% chi-square band
        rng = RandomStream(17, 0).generator()
        draws = sample_a(5, rng, size=1_000_000)
        codes = draws @ (4 ** np.arange(5))
        counts = np.bincount(codes, minlength=4**5)
        occupied = counts[counts > 0]
        assert len(occupied) == 512
        expected = 1_000_000 / 512
        chi2 = float(((occupied - expected) ** 2 / expected).sum())
        assert chi2 < sps.chi2.ppf(0.99, 511)
        # and no single tuple strays past 5 sigma of its multinomial count
        sigma_cell = math.sqrt(expected * (1 - 1 / 512))
        assert np.abs(occupied - expected).max() < 5 * sigma_cell

    def test_shape_modes(self):
        rng = RandomStream(0, 0).generator()
        batch = sample_a(4, rng, size=7)
        assert batch.shape == (7, 4)

    def test_bad_party_count(self):
        with pytest.raises(ValueError):
            sample_a(0, RandomStream(0, 0).generator(), size=1)


class TestSampleB:
    def test_acceptance_rate_matches_mean_abs_cos(self):
        # oracle: acceptance probability is E|cos| under the uniform proposal
        oracle = quadrature_1d(lambda u: np.abs(np.cos(u)) / TWO_PI, 0.0, TWO_PI, 20000)
        assert oracle == pytest.approx(2.0 / math.pi, abs=1e-6)
        rng = RandomStream(23, 0).generator()
        n_proposals = 1_000_000
        accepted = len(_propose_b(3, rng, n_proposals))
        rate = accepted / n_proposals
        sigma = math.sqrt(oracle * (1 - oracle) / n_proposals)
        assert abs(rate - oracle) < 3 * sigma

    def test_marginal_histogram_chi_square(self):
        # N=1 accepted values against the binned |cos x|/4 density at 99%
        rng = RandomStream(29, 0).generator()
        draws = sample_b(1, rng, size=200_000).ravel()
        edges = np.linspace(0.0, TWO_PI, 33)
        probs = binned_abs_cos_density(edges)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        counts, _ = np.histogram(draws, bins=edges)
        expected = probs * len(draws)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < sps.chi2.ppf(0.99, 31)

    def test_mean_signed_cosine_is_quantum_fidelity(self):
        # E[sign(cos S) * cos S] = E|cos S| = pi/4 under the task density
        oracle = quadrature_1d(lambda u: np.cos(u) ** 2 / 4.0, 0.0, TWO_PI, 20000)
        assert oracle == pytest.approx(math.pi / 4.0, abs=1e-6)
        rng = RandomStream(31, 0).generator()
        draws = sample_b(3, rng, size=1_000_000)
        values = np.abs(np.cos(draws.sum(axis=1)))
        sigma = float(values.std(ddof=1)) / math.sqrt(len(values))
        assert abs(float(values.mean()) - oracle) < 3 * sigma

    def test_domain(self):
        rng = RandomStream(0, 0).generator()
        draws = sample_b(4, rng, size=5000)
        assert draws.min() >= 0.0 and draws.max() < TWO_PI

    def test_round_cap_signals_broken_generator(self):
        rng = RandomStream(0, 0).generator()
        with pytest.raises(RuntimeError, match="rounds"):
            sample_b(2, rng, size=10, max_rounds=0)

    @staticmethod
    def _first_round(seed: int, size: int) -> np.ndarray:
        return propose_b_uniform(5, RandomStream(seed, 0).generator(), proposals_per_round(size))

    def test_request_filled_by_the_last_allowed_round_returns(self):
        seed = 0
        first = self._first_round(seed, 10)
        assert len(first) >= 10  # one round is enough at this seed
        rng = RandomStream(seed, 0).generator()
        assert np.array_equal(sample_b(5, rng, size=10, max_rounds=1), first[:10])

    def test_request_short_after_the_last_round_raises(self):
        seed = 3
        assert len(self._first_round(seed, 10)) < 10  # this seed needs a second round
        with pytest.raises(RuntimeError, match="exhausted 1 rounds"):
            sample_b(5, RandomStream(seed, 0).generator(), size=10, max_rounds=1)
        assert sample_b(5, RandomStream(seed, 0).generator(), size=10, max_rounds=2).shape == (10, 5)

    @pytest.mark.parametrize("seed, size", [(0, 10), (3, 10), (1, 100_000)])
    def test_result_holds_no_rows_beyond_the_request(self, seed, size):
        # the last round keeps only the acceptances still needed, so the
        # result is no view into a longer array; seed 3 needs two rounds
        rng, oracle = RandomStream(seed, 0).generator(), RandomStream(seed, 0).generator()
        got = sample_b(5, rng, size=size)
        assert got.base is None and got.shape == (size, 5)
        assert got.tobytes() == sample_b_uniform(5, oracle, size).tobytes()
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_empty_request_needs_no_round(self):
        rng = RandomStream(0, 0).generator()
        before = rng.bit_generator.state
        assert sample_b(3, rng, size=0, max_rounds=0).shape == (0, 3)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("size", [0, 1, 17, 100_000])
    def test_matches_the_uniform_sampler(self, n, size):
        # the column kernel draws random() * 2 pi in place of uniform(0, 2 pi)
        # and scores in row blocks: the same rows and the same generator state
        self._check_sampler(n, size, *generator_pair(np.random.PCG64, 41, n, spare=False))

    @pytest.mark.parametrize("bit_generator, spare", JUMP_CASES)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("size", [0, 1, 17, 100_000])
    def test_matches_the_uniform_sampler_on_every_bit_generator(self, n, size, bit_generator, spare):
        self._check_sampler(n, size, *generator_pair(bit_generator, 41, n, spare))

    @staticmethod
    def _check_sampler(n, size, rng, oracle):
        got, want = sample_b(n, rng, size=size), sample_b_uniform(n, oracle, size)
        assert got.shape == want.shape == (size, n)
        assert got.tobytes() == want.tobytes()
        assert same_state(rng.bit_generator.state, oracle.bit_generator.state)

    @pytest.mark.parametrize("count", [1, 16, 8191, 8192, 8193, 40_000])
    def test_one_round_matches_the_uniform_round(self, count):
        # counts around one block of rows, and several blocks
        self._check_round(count, *generator_pair(np.random.PCG64, 43, count, spare=False))

    @pytest.mark.parametrize("bit_generator, spare", JUMP_CASES)
    @pytest.mark.parametrize("count", [1, 16, 8191, 8192, 8193, 40_000])
    def test_one_round_matches_on_every_bit_generator(self, count, bit_generator, spare):
        # the acceptance doubles come from a copy moved ahead by a jump; the
        # spare word catches a jump that drops it
        self._check_round(count, *generator_pair(bit_generator, 43, count, spare))

    @staticmethod
    def _check_round(count, rng, oracle):
        assert _propose_b(5, rng, count).tobytes() == propose_b_uniform(5, oracle, count).tobytes()
        assert same_state(rng.bit_generator.state, oracle.bit_generator.state)

    def test_round_holds_no_whole_round_array(self):
        # the round streams through row blocks: the traced peak stays near the result
        rng = RandomStream(53, 0).generator()
        tracemalloc.start()
        try:
            rows = sample_b(5, rng, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows.nbytes

    def test_edge_rows_are_decided_in_float64(self):
        # uniforms on |cos| of their sums and one ulp either side: only float64 cosines
        # tell these apart, so every row goes through the settle and sets the margin
        total = np.random.default_rng(5).uniform(0.0, 5 * TWO_PI, 20_000)
        edge = np.abs(np.cos(total))
        for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            accept, margin = accept_below(u, total[:, None], np.abs)
            assert np.array_equal(accept, u < edge)
            assert margin == np.abs(u - edge).min()
        assert accept_below(edge, total[:, None], np.abs)[1] == 0.0
        assert accept_below(np.zeros(3), np.full((3, 1), 0.5), np.abs)[1] == math.inf

    def test_settling_every_row_changes_no_draw(self, monkeypatch):
        oracle = RandomStream(47, 0).generator()
        want = (sample_b_uniform(5, oracle, 50_000).tobytes(), oracle.bit_generator.state)
        got = []
        for guard in (tasks.COS_GUARD, 4.0):  # 4 exceeds every acceptance margin
            monkeypatch.setattr(tasks, "COS_GUARD", guard)
            rng = RandomStream(47, 0).generator()
            got.append((sample_b(5, rng, 50_000).tobytes(), rng.bit_generator.state))
        assert got[0] == got[1] == want


class TestEnumerateA:
    def test_n1_content(self):
        tuples, weights = enumerate_a(1)
        assert tuples.tolist() == [[0], [2]]
        assert np.allclose(weights, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_coverage_and_weights(self, n):
        tuples, weights = enumerate_a(n)
        assert len(tuples) == 4**n // 2
        assert len(np.unique(tuples @ (4 ** np.arange(n)))) == len(tuples)
        assert not np.any(tuples.sum(axis=1) % 2)
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_n2_count_example(self):
        tuples, weights = enumerate_a(2)
        assert len(tuples) == 8
        assert np.allclose(weights, 1 / 8)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_a(11)
        with pytest.raises(ValueError):
            enumerate_a(0)

    def test_reduced_enumeration(self):
        bits = enumerate_reduced_a(5)
        assert bits.shape == (16, 5)
        assert not np.any(bits.sum(axis=1) % 2)


def test_sampled_inputs_feed_the_quantum_protocol():
    # end-to-end sanity: ideal protocol success on sampled B inputs ~ 0.8927
    rng = RandomStream(37, 0).generator()
    draws = sample_b(5, rng, size=200_000)
    answers = run_quantum_batch(Task.B, draws, 1.0, rng)
    p_hat = float(np.mean(answers == task_value_batch(Task.B, draws)))
    p_q = (1 + math.pi / 4) / 2
    assert abs(p_hat - p_q) < 3 * math.sqrt(p_q * (1 - p_q) / 200_000)
