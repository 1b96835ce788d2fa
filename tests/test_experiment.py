import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qccp import (
    PRESETS,
    ExperimentParams,
    RandomStream,
    Runs,
    Task,
    experimental_fidelity,
    gamma_from_visibility,
    optimize_window,
    predicted_success,
    run_quantum,
    run_quantum_batch,
    sample_b,
    sample_inputs,
    simulate_experiment,
    simulate_run,
    stream_runs,
    task_value,
    task_value_batch,
    visibility_from_gamma,
)
from qccp import experiment, sampling
from qccp.experiment import _REPLAYABLE, _first_accepted, _poisson_ptrs, _simulate, split_targets

from oracles import first_accepted_b

probs = st.floats(0.0, 1.0, allow_nan=False)
COLUMNS = [f.name for f in dataclasses.fields(Runs)]


def same_runs(a: Runs, b: Runs) -> bool:
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)


def scalar_windows(params: ExperimentParams, rng, max_windows: int | None = None) -> list[tuple]:
    """Reference engine: one scalar task_value and run_quantum call per window.

    Makes the documented draws in the documented order: the input tuple (as
    the first row of a size=1 batch), the trigger count, the detection draw
    of an accepted window, then the answer draw.
    """
    rows = []
    accepted = 0
    while accepted < params.n_target and len(rows) != max_windows:
        inputs = sample_inputs(params.task, params.n_parties, rng, size=1)[0]
        truth = task_value(params.task, inputs)
        count = int(rng.poisson(params.trigger_rate * params.window))
        detected = count == 1 and rng.random() < params.eta
        if detected:
            answer = run_quantum(params.task, inputs, params.visibility, rng)
        else:
            answer = 1 if rng.random() < 0.5 else -1
        rows.append((tuple(inputs.tolist()), count, count == 1, detected, not detected,
                     answer, truth))
        accepted += count == 1
    return rows


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox]


def generators(count: int, seed: int, bit_generator=np.random.PCG64, spare: bool = False):
    """Equal generators; with ``spare`` each holds a spare 32-bit half, as after integers(0, 2)."""
    rngs = [np.random.Generator(bit_generator(seed)) for _ in range(count)]
    if spare:
        for rng in rngs:
            rng.integers(0, 2)
    return rngs


def same_state(a, b) -> bool:
    """Equal bit_generator.state values, whose leaves may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_replays(params: ExperimentParams, rngs, max_windows: int | None = None) -> None:
    """The engine equals scalar_windows and repeated simulate_run, generator states included."""
    rng, twin, steps = rngs
    if max_windows is None:
        runs = simulate_experiment(params, rng)
    else:
        runs = _simulate(params, rng, max_windows)
    assert list(runs) == scalar_windows(params, twin, max_windows)
    assert same_state(rng.bit_generator.state, twin.bit_generator.state)
    assert same_runs(Runs.concat([simulate_run(params, steps) for _ in range(len(runs))]), runs)
    assert same_state(steps.bit_generator.state, rng.bit_generator.state)


class TestOptimizeWindow:
    def test_published_operating_point(self):
        choice = optimize_window(5000.0)
        assert choice.window == 200e-6
        assert abs(choice.accept_prob - math.exp(-1.0)) < 1e-15

    def test_scale_invariance(self):
        assert optimize_window(10_000.0).window == 100e-6

    def test_it_really_is_the_argmax(self):
        # numeric oracle: scan P(exactly one trigger) over a window grid
        rate = 5000.0
        taus = np.linspace(1e-5, 1e-3, 9901)
        p_one = rate * taus * np.exp(-rate * taus)
        best = taus[np.argmax(p_one)]
        assert best == pytest.approx(optimize_window(rate).window, rel=1e-3)
        assert p_one.max() <= math.exp(-1.0) + 1e-12

    def test_rejects_nonpositive_rate(self):
        # 1/1e-320 overflows to an infinite window
        for rate in (0.0, math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError, match="trigger_rate"):
                optimize_window(rate)


class TestGammaVisibility:
    def test_task_a_published_point(self):
        assert gamma_from_visibility(Task.A, 0.932) == pytest.approx(0.966, abs=1e-12)
        assert visibility_from_gamma(Task.A, 0.966) == pytest.approx(0.932, abs=1e-12)

    def test_task_b_published_point(self):
        vis = visibility_from_gamma(Task.B, 0.858)
        assert vis == pytest.approx((2 * 0.858 - 1) / (math.pi / 4), rel=1e-12)
        assert vis == pytest.approx(0.9116, abs=5e-4)
        assert gamma_from_visibility(Task.B, vis) == pytest.approx(0.858, abs=1e-12)

    def test_ideal_visibility_gives_protocol_limits(self):
        assert gamma_from_visibility(Task.A, 1.0) == 1.0
        assert gamma_from_visibility(Task.B, 1.0) == pytest.approx(
            (1 + math.pi / 4) / 2, abs=1e-15
        )

    def test_unattainable_gamma_rejected(self):
        with pytest.raises(ValueError):
            visibility_from_gamma(Task.B, 0.95)
        with pytest.raises(ValueError):
            visibility_from_gamma(Task.A, 0.4)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_round_trip(self, vis):
        for task in (Task.A, Task.B):
            gamma = gamma_from_visibility(task, vis)
            assert visibility_from_gamma(task, gamma) == pytest.approx(vis, abs=1e-12)

    def test_gamma_formula_against_monte_carlo(self):
        # conditional correctness of the dephased protocol matches gamma_B
        vis = visibility_from_gamma(Task.B, 0.858)
        rng = RandomStream(41, 0).generator()
        draws = sample_b(5, rng, size=400_000)
        answers = run_quantum_batch(Task.B, draws, vis, rng)
        p_hat = float(np.mean(answers == task_value_batch(Task.B, draws)))
        assert abs(p_hat - 0.858) < 3 * math.sqrt(0.858 * 0.142 / 400_000)


class TestClosedForms:
    def test_published_rows(self):
        assert predicted_success(0.452, 0.966) == pytest.approx(0.7106, abs=1e-4)
        assert predicted_success(0.471, 0.858) == pytest.approx(0.6686, abs=1e-4)
        assert experimental_fidelity(0.452, 0.966) == pytest.approx(0.42126, abs=1e-5)

    def test_degenerate_ends(self):
        assert predicted_success(0.0, 0.9) == 0.5
        assert predicted_success(1.0, 0.9) == pytest.approx(0.9)
        assert experimental_fidelity(0.7, 0.5) == pytest.approx(0.0, abs=1e-15)

    @given(probs, probs)
    def test_fidelity_success_identity(self, eta, gamma):
        assert experimental_fidelity(eta, gamma) == pytest.approx(
            2.0 * predicted_success(eta, gamma) - 1.0, abs=1e-12
        )

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(0.0, 1.0, 11)
        for gamma in grid:
            vals = [predicted_success(eta, gamma) for eta in grid]
            diffs = np.diff(vals)
            assert (diffs >= -1e-15).all() if gamma >= 0.5 else (diffs <= 1e-15).all()
        for eta in grid:
            vals = [predicted_success(eta, gamma) for gamma in grid]
            assert (np.diff(vals) >= -1e-15).all()

    def test_domain(self):
        with pytest.raises(ValueError):
            predicted_success(1.5, 0.9)
        with pytest.raises(ValueError):
            experimental_fidelity(0.5, -0.1)


class TestParamsAndRecords:
    def test_presets_match_published_parameters(self):
        a, b = PRESETS["A"], PRESETS["B"]
        assert (a.eta, a.n_target, a.n_parties) == (0.452, 6692, 5)
        assert a.gamma == pytest.approx(0.966, abs=1e-12)
        assert (b.eta, b.n_target) == (0.471, 18169)
        assert b.gamma == pytest.approx(0.858, abs=1e-12)
        for preset in (a, b):
            assert preset.trigger_rate == 5000.0
            assert preset.window == 200e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentParams(Task.A, 5, 5000.0, 200e-6, eta=1.5, visibility=1.0, n_target=10)
        with pytest.raises(ValueError):
            ExperimentParams(Task.A, 5, -1.0, 200e-6, eta=0.5, visibility=1.0, n_target=10)
        with pytest.raises(ValueError):
            ExperimentParams(Task.A, 0, 5000.0, 200e-6, eta=0.5, visibility=1.0, n_target=10)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="trigger_rate"):
                ExperimentParams(Task.A, 5, bad, 200e-6, eta=0.5, visibility=1.0, n_target=10)
            with pytest.raises(ValueError, match="window"):
                ExperimentParams(Task.A, 5, 5000.0, bad, eta=0.5, visibility=1.0, n_target=10)

    def test_record_invariants(self):
        window = dict(inputs=[[0, 0]], trigger_count=[1], detected=[True], answer=[1], truth=[1])
        Runs(**window)
        for broken in (
            dict(trigger_count=[2]),  # detected with two triggers
            dict(trigger_count=[0]),  # detected but not accepted
            dict(answer=[0]),
            dict(truth=[2]),
            dict(answer=[1, 1]),  # column lengths differ
            dict(inputs=[0, 0]),  # inputs not (windows, N)
        ):
            with pytest.raises(ValueError):
                Runs(**{**window, **broken})

    def test_unaccepted_windows_guess(self):
        runs = Runs(inputs=[[0, 0], [1, 1]], trigger_count=[0, 3], detected=[False, False],
                    answer=[1, -1], truth=[1, -1])
        assert len(runs) == 2 and runs.correct.tolist() == [True, True]
        rows = list(runs)
        assert rows[1] == ((1, 1), 3, False, False, True, -1, -1)
        assert all(type(r.accepted) is bool and type(r.trigger_count) is int for r in rows)


class TestSimulateRun:
    def params(self, **kw):
        base = dict(task=Task.A, n_parties=3, trigger_rate=5000.0, window=200e-6,
                    eta=1.0, visibility=1.0, n_target=1)
        base.update(kw)
        return ExperimentParams(**base)

    def test_perfect_apparatus_never_errs_on_accepted_runs(self):
        rng = RandomStream(0, 0).generator()
        runs = [simulate_run(self.params(), rng) for _ in range(3000)]
        assert all(len(r) == 1 for r in runs)
        runs = Runs.concat(runs)
        accepted = runs.accepted
        assert runs.detected[accepted].all() and not runs.guessed[accepted].any()
        assert runs.correct[accepted].all()
        assert np.count_nonzero(accepted) > 500

    def test_eta_zero_guesses_at_coin_rate(self):
        # one engine call makes the windows of 30,000 simulate_run calls; the
        # first 200 are checked against those calls on a twin generator
        params = self.params(eta=0.0)
        rng, twin = RandomStream(1, 0).generator(), RandomStream(1, 0).generator()
        runs = _simulate(dataclasses.replace(params, n_target=30_000), rng, max_windows=30_000)
        assert len(runs) == 30_000
        head = Runs.concat([simulate_run(params, twin) for _ in range(200)])
        assert all(np.array_equal(getattr(head, c), getattr(runs, c)[:200]) for c in COLUMNS)
        accepted = runs.accepted
        assert runs.guessed[accepted].all() and not runs.detected[accepted].any()
        p_hat = np.mean(runs.correct[accepted])
        assert abs(p_hat - 0.5) < 3 * math.sqrt(0.25 / np.count_nonzero(accepted))

    def test_detection_fraction_matches_eta(self):
        params = self.params(eta=0.7, n_target=10_000)
        runs = simulate_experiment(params, RandomStream(2, 0).generator())
        detected = runs.detected[runs.accepted]
        frac = np.mean(detected)
        assert abs(frac - 0.7) < 3 * math.sqrt(0.7 * 0.3 / len(detected))

    @pytest.mark.parametrize("task", [Task.A, Task.B])
    def test_experiment_is_simulate_run_repeated(self, task):
        params = self.params(task=task, n_parties=5, eta=0.6, visibility=0.8, n_target=150)
        for bit_generator in BIT_GENERATORS:
            for spare in (False, True):
                assert_replays(params, generators(3, 3, bit_generator, spare))

    def test_other_bit_generators_are_refused(self):
        rng = np.random.Generator(np.random.MT19937(3))
        with pytest.raises(TypeError, match="MT19937"):
            simulate_run(self.params(), rng)
        with pytest.raises(TypeError, match="MT19937"):
            simulate_experiment(self.params(), rng)


class TestReferenceEngine:
    @pytest.mark.parametrize("task", [Task.A, Task.B])
    @pytest.mark.parametrize("eta, vis", [(0.452, 0.932), (0.471, 0.9116), (1.0, 1.0), (0.0, 0.5)])
    def test_columns_equal_the_scalar_loop(self, task, eta, vis):
        params = ExperimentParams(task, 5, 5000.0, 200e-6, eta, vis, 400)
        rng, twin = RandomStream(8, 0).generator(), RandomStream(8, 0).generator()
        runs = simulate_experiment(params, rng)
        assert list(runs) == scalar_windows(params, twin)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("task", [Task.A, Task.B])
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("mu", [0.5, 1.0, 3.0, 9.99, 10.0, 12.0])
    def test_parties_and_trigger_means(self, monkeypatch, task, n, mu):
        # mu 0.5 and 1 end on the target, 3 and up on the window cap; 9.99 is
        # the last mu of the engine's inline product sampler and 10 the first
        # of numpy's PTRS sampler.  Small chunks put chunk ends inside windows,
        # and for task A inside a window's input words, on every bit generator
        monkeypatch.setattr(experiment, "CHUNK_WORDS", 64)
        params = ExperimentParams(task, n, 5000.0, mu / 5000.0, 0.6, 0.8, 40)
        assert_replays(params, generators(3, n, spare=n % 2 == 1), max_windows=200)
        if (n, mu) in ((5, 1.0), (4, 12.0)):
            for bit_generator in BIT_GENERATORS:
                for spare in (False, True):
                    assert_replays(params, generators(3, n, bit_generator, spare), max_windows=200)

    def test_chunks_follow_the_words_read_at_low_acceptance(self):
        # at mu = 12 one window in about 14,000 is accepted; each chunk still
        # draws up to CHUNK_WORDS words, as one ``random`` call, which the
        # generator counts.  Philox counts the words read: four per counter
        # step, less the 4 - buffer_pos words of its buffer not yet read
        class CountingGenerator(np.random.Generator):
            chunks = 0

            def random(self, *args, **kwargs):
                self.chunks += 1
                return super().random(*args, **kwargs)

        rng = CountingGenerator(np.random.Philox(12))
        simulate_experiment(ExperimentParams(Task.B, 5, 5000.0, 0.0024, 0.6, 0.8, 1), rng)
        state = rng.bit_generator.state
        read = 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4
        assert rng.chunks <= -(-read // experiment.CHUNK_WORDS) + 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rounds_that_reject_every_proposal(self, monkeypatch, n):
        # one proposal a round: about 36% of rounds reject and are re-parsed
        monkeypatch.setattr(sampling, "MIN_PROPOSALS", 1)
        params = ExperimentParams(Task.B, n, 5000.0, 200e-6, 0.6, 0.8, 100)
        assert_replays(params, generators(3, n))


class TestSimulateExperiment:
    def test_collects_exactly_the_target(self):
        params = PRESETS["A"]
        params = ExperimentParams(
            task=params.task, n_parties=params.n_parties,
            trigger_rate=params.trigger_rate, window=params.window,
            eta=params.eta, visibility=params.visibility, n_target=2000,
        )
        runs = simulate_experiment(params, RandomStream(3, 0).generator())
        assert np.count_nonzero(runs.accepted) == 2000
        assert runs.accepted[-1]  # stops at the final acceptance

    def test_window_count_and_acceptance_statistics(self):
        params = ExperimentParams(Task.A, 2, 5000.0, 200e-6, 1.0, 1.0, 10_000)
        runs = simulate_experiment(params, RandomStream(4, 0).generator())
        n_windows = len(runs)
        p_one = math.exp(-1.0)
        # expected total windows ~ n_target / e^-1
        assert abs(n_windows - 10_000 / p_one) < 4 * math.sqrt(10_000) / p_one
        frac = 10_000 / n_windows
        assert abs(frac - p_one) < 3 * math.sqrt(p_one * (1 - p_one) / n_windows)

    def test_trigger_counts_follow_poisson_mean(self):
        params = ExperimentParams(Task.A, 2, 5000.0, 100e-6, 1.0, 1.0, 3000)
        runs = simulate_experiment(params, RandomStream(5, 0).generator())
        counts = runs.trigger_count
        mu = 0.5
        assert abs(counts.mean() - mu) < 3 * math.sqrt(mu / len(counts))

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("vis", [0.7, 0.9, 1.0])
    def test_agrees_with_closed_form_task_a(self, eta, vis):
        params = ExperimentParams(Task.A, 5, 5000.0, 200e-6, eta, vis, 10_000)
        runs = simulate_experiment(
            params, RandomStream(6, int(eta * 100 + vis * 10)).generator()
        )
        p_hat = np.mean(runs.correct[runs.accepted])
        predicted = predicted_success(eta, gamma_from_visibility(Task.A, vis))
        assert abs(p_hat - predicted) < 3 * math.sqrt(predicted * (1 - predicted) / 10_000)

    @pytest.mark.parametrize("eta,vis", [(0.3, 0.9), (0.5, 1.0), (0.9, 0.7)])
    def test_agrees_with_closed_form_task_b(self, eta, vis):
        params = ExperimentParams(Task.B, 3, 5000.0, 200e-6, eta, vis, 10_000)
        runs = simulate_experiment(
            params, RandomStream(7, int(eta * 100 + vis * 10)).generator()
        )
        p_hat = np.mean(runs.correct[runs.accepted])
        predicted = predicted_success(eta, gamma_from_visibility(Task.B, vis))
        assert abs(p_hat - predicted) < 3 * math.sqrt(predicted * (1 - predicted) / 10_000)

    def test_unusable_window_rejected(self):
        params = ExperimentParams(Task.A, 2, 5000.0, 1e-12, 1.0, 1.0, 10)
        with pytest.raises(ValueError, match="window"):
            simulate_experiment(params, RandomStream(0, 0).generator())


class TestStreams:
    def test_split_targets(self):
        assert split_targets(10, 3) == [4, 3, 3]
        assert split_targets(9, 3) == [3, 3, 3]
        with pytest.raises(ValueError):
            split_targets(2, 3)

    def test_streamed_run_is_reproducible(self):
        params = ExperimentParams(Task.B, 2, 5000.0, 200e-6, 0.5, 0.9, 600)
        a = stream_runs(params, seed=9, streams=3)
        b = stream_runs(params, seed=9, streams=3)
        assert [i for i, _ in a] == [i for i, _ in b] == [0, 1, 2]
        assert all(same_runs(x, y) for (_, x), (_, y) in zip(a, b))
        assert [np.count_nonzero(r.accepted) for _, r in a] == split_targets(600, 3)

    def test_stream_count_changes_the_draws_but_not_the_contract(self):
        params = ExperimentParams(Task.A, 2, 5000.0, 200e-6, 0.5, 0.9, 600)
        one = Runs.concat([r for _, r in stream_runs(params, seed=9, streams=1)])
        three = Runs.concat([r for _, r in stream_runs(params, seed=9, streams=3)])
        assert not same_runs(one, three)
        assert np.count_nonzero(one.accepted) == np.count_nonzero(three.accepted) == 600


class TestFirstAccepted:
    # the engine's replay of task B rounds at the edge of their acceptance test, where
    # float32 cosines alone decide wrongly and random streams almost never land

    @staticmethod
    def edge_rounds(n: int, proposals: int, plan: list[int], seed: int):
        """Doubles holding one round per plan entry, at random gaps, and the rounds' starts.

        Round r's proposals before plan[r] get uniforms on |cos| of their sum or one ulp
        above it, proposal plan[r] one ulp below, so it is the first accepted (plan -1:
        none is).  Odd rounds put every sum within 1e-9 of a zero of cos.
        """
        rng = np.random.default_rng(seed)
        words, starts, at = [], [], 0
        for r, first in enumerate(plan):
            gap = rng.random(int(rng.integers(0, 4)))
            phases = rng.random((proposals, n))
            if r % 2:
                partial = (experiment._TWO_PI * phases[:, :-1]).sum(axis=1)
                zero = (np.floor(partial / math.pi - 0.5) + 1.5) * math.pi
                zero += rng.uniform(-1e-9, 1e-9, proposals)
                phases[:, -1] = (zero - partial) / experiment._TWO_PI
            edge = np.abs(np.cos((experiment._TWO_PI * phases).sum(axis=1)))
            assert r % 2 == 0 or edge.max() < 2e-9
            u = rng.random(proposals)
            last = proposals if first < 0 else first
            u[:last] = np.where(np.arange(last) % 2, edge[:last], np.nextafter(edge[:last], 1.0))
            if first >= 0:
                u[first] = np.nextafter(edge[first], 0.0)
            starts.append(at + len(gap))
            words += [gap, phases.ravel(), u]
            at = starts[-1] + proposals * (n + 1)
        return np.concatenate(words), np.array(starts, dtype=np.intp)

    @pytest.mark.parametrize("n", [1, 5])
    def test_edge_rounds_match_the_float64_oracle(self, n):
        proposals = sampling.proposals_per_round(1)
        plan = [0, 1, 7, proposals - 1, -1] * 6
        d, starts = self.edge_rounds(n, proposals, plan, seed=29 + n)
        got = _first_accepted(d, starts, n, proposals)
        assert got.tolist() == first_accepted_b(d, starts, n, proposals) == plan


@pytest.mark.parametrize("lam", [10.0, 12.0, 16.5, 37.3])
def test_poisson_matches_numpy_draw_for_draw(lam):
    # numpy's PTRS sampler, from lam = 10 on, with the generator left at the
    # same word; the experiment engine's tests cover its inline sampler below 10
    rng, twin = np.random.default_rng(int(lam * 10)), np.random.default_rng(int(lam * 10))
    expected = rng.poisson(lam, size=20_000).tolist()
    d = memoryview(twin.random(20_000 * 12))
    p, got = 0, []
    for _ in expected:
        k, p = _poisson_ptrs(d, p, len(d), lam)
        got.append(k)
    assert got == expected
    rewound = np.random.default_rng(int(lam * 10))
    if p:
        rewound.bit_generator.random_raw(p)
    assert rewound.bit_generator.state == rng.bit_generator.state


def test_poisson_reports_running_out():
    assert _poisson_ptrs([0.3], 0, 1, 12.0) == (-1, 1)  # PTRS draws pairs


def test_words_as_doubles_and_halves():
    # what the experiment engine reads its draws by: random() of a word w is
    # (w >> 11) 2**-53, so d 2**53 gives w >> 11 back exactly; integers(0, 4)
    # and integers(0, 2) read each 32-bit half's top bits, low half first,
    # which are bits 19-20 and 51-52 of w >> 11; a spare high half is bits 21-52
    for name in _REPLAYABLE:
        raw, doubles, ints = (np.random.Generator(getattr(np.random, name)(9)) for _ in range(3))
        words = raw.bit_generator.random_raw(1000)
        d = doubles.random(1000)
        assert d.tolist() == [(int(w) >> 11) * 2.0**-53 for w in words]
        top = (d * 2.0**53).astype(np.int64)
        assert top.tolist() == [int(w) >> 11 for w in words]
        tops = np.empty(2000, dtype=np.int64)
        tops[0::2], tops[1::2] = (top >> 19) & 3, top >> 51
        assert ints.integers(0, 4, size=1500).tolist() == tops[:1500].tolist()
        assert ints.integers(0, 2, size=500).tolist() == (tops[1500:] >> 1).tolist()
        ints.integers(0, 4)  # a low half, which leaves its high half as the spare
        state = ints.bit_generator.state
        assert state["has_uint32"] and state["uinteger"] == int(doubles.random() * 2.0**53) >> 21
