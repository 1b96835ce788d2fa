import hashlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccp import (
    CommTree,
    GeneralProtocolA,
    ProductStrategyA,
    ProductStrategyB,
    RandomStream,
    Task,
    brute_force_bound_a,
    certify_bound_a,
    classical_bound,
    coordinate_ascent_b,
    enumerate_a,
    exhaust_product_strategies_a,
    fidelity_exact,
    fidelity_mc,
    half_split_strategy_b,
    optimize_strategy_b,
    product_strategy_a_from_index,
    random_strategy_b,
    run_protocol,
    task_value,
)

from qccp import classical
from qccp.classical import (
    ASCENT_BLOCK,
    EXHAUST_MAX_PARTIES,
    MAX_SWEEPS,
    _answers,
    _best_root,
    _last_sender_fidelities,
    _sender_weight,
)
from oracles import (
    ascend_by_party_b,
    brute_force_by_combination_a,
    even_sum_tuples,
    fidelity_by_enumeration_a,
    fidelity_by_quadrature_b,
    optimize_by_restart_b,
    product_answers,
    product_fidelities_by_parity_a,
    root_weights_a,
    run_tables,
    sign_table,
    subtree_weights_a,
)

TWO_OVER_PI = 2.0 / math.pi


def sign_tables(seed, n):
    rng = np.random.default_rng(seed)
    return ProductStrategyA(1 - 2 * rng.integers(0, 2, size=(n, 2)))


class TestCommTree:
    def test_chain_and_star_shapes(self):
        chain = CommTree.chain(4)
        assert chain.parents == (1, 2, 3)
        star = CommTree.star(4)
        assert star.parents == (3, 3, 3)

    def test_children_and_send_order(self):
        tree = CommTree(5, (1, 4, 4, 4))
        assert tree.children(4) == (1, 2, 3)
        order = tree.send_order()
        assert sorted(order) == [0, 1, 2, 3]
        assert order.index(0) < order.index(1)  # child before its parent

    def test_invalid_trees(self):
        with pytest.raises(ValueError):
            CommTree(3, (1,))  # wrong edge count
        with pytest.raises(ValueError):
            CommTree(3, (0, 2))  # self-loop
        with pytest.raises(ValueError):
            CommTree(3, (1, 0))  # 0 -> 1 -> 0 never reaches the root
        with pytest.raises(ValueError):
            CommTree(3, (3, 3))  # recipient out of range


class TestRunProtocol:
    def test_n2_worked_example(self):
        # a_1(x) = (-1)^x, a_2 constant: always correct at N=2
        strategy = ProductStrategyA([[1, -1], [1, 1]])
        tree = CommTree.chain(2)
        assert run_protocol(strategy, tree, (3, 3)) == -1
        assert task_value(Task.A, (3, 3)) == -1
        tuples, _ = enumerate_a(2)
        assert all(
            run_protocol(strategy, tree, row) == task_value(Task.A, row)
            for row in tuples.tolist()
        )

    def test_flipping_one_y_flips_the_answer(self):
        # X_k -> X_k + 2 (mod 4) toggles y_k and keeps x_k
        strategy = sign_tables(0, 4)
        tree = CommTree.chain(4)
        base = (0, 1, 2, 3)
        flipped = (2, 1, 2, 3)
        assert run_protocol(strategy, tree, base) == -run_protocol(
            strategy, tree, flipped
        )

    def test_product_answer_independent_of_tree(self):
        strategy = sign_tables(1, 5)
        chain, star = CommTree.chain(5), CommTree.star(5)
        tuples, _ = enumerate_a(5)
        for row in tuples[::37].tolist():
            assert run_protocol(strategy, chain, row) == run_protocol(
                strategy, star, row
            )

    def test_product_b_strategy_runs(self):
        strategy = half_split_strategy_b(2, 16)
        tree = CommTree.chain(2)
        # both below pi/2: x-signs +1, y-signs +1 -> answer +1
        assert run_protocol(strategy, tree, (0.3, 0.4)) == 1
        # one input shifted by pi: y flips once
        assert run_protocol(strategy, tree, (0.3, 0.4 + math.pi)) == -1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            run_protocol(sign_tables(0, 3), CommTree.chain(3), (0, 2))
        with pytest.raises(ValueError):
            run_protocol(sign_tables(0, 2), CommTree.chain(3), (0, 0, 2))


class TestFidelityExactA:
    def test_perfect_n2_strategy(self):
        assert fidelity_exact(ProductStrategyA([[1, -1], [1, 1]])) == 1.0

    def test_all_ones_n5(self):
        strategy = ProductStrategyA(np.ones((5, 2), dtype=int))
        assert fidelity_exact(strategy) == 0.25

    def test_matches_direct_enumeration_oracle(self):
        tree = CommTree.chain(4)
        for seed in range(6):
            strategy = sign_tables(seed, 4)
            oracle = fidelity_by_enumeration_a(
                lambda combo: run_protocol(strategy, tree, combo), 4
            )
            assert fidelity_exact(strategy) == pytest.approx(oracle, abs=1e-14)

    @given(st.integers(0, 4**6 - 1), st.integers(2, 6))
    @settings(max_examples=80)
    def test_fidelity_lies_in_unit_interval(self, index, n):
        fid = fidelity_exact(product_strategy_a_from_index(index % 4**n, n))
        assert 0.0 <= fid <= 1.0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_exhaustion_attains_but_never_exceeds_bound(self, n):
        bound = classical_bound(Task.A, n).fidelity
        fids, best = exhaust_product_strategies_a(n)
        assert len(fids) == 4**n
        assert fids[best] == bound
        assert np.all(fids <= bound)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustion_matches_parity_string_oracle(self, n):
        fids, best = exhaust_product_strategies_a(n)
        # a_k(x) = -1 where bit 2k + x of the strategy index is set
        bit = 2 * np.arange(n)[:, None] + np.arange(2)
        signs = 1 - 2 * ((np.arange(4**n)[:, None, None] >> bit) & 1)
        want = product_fidelities_by_parity_a(signs)
        assert fids.dtype == want.dtype and fids.tobytes() == want.tobytes()
        assert best == int(np.argmax(want))

    # sha256 of each exhaustion's fidelity bytes then its int64 argmax,
    # recorded when the sign tables were cast to complex in one piece
    EXHAUSTION_SHA256 = {
        1: "100e0f922c6f007fcf03b6f57399f7590922c1fae21e48c449e7494f7455a405",
        2: "6ef648080d501091503b8687e4b4abda2f055f951fde574a884e91b86ac21592",
        3: "f466fdccd94ef26214d3e36508b92ffec129fb7140462c609500d416a067300e",
        4: "00aec45da8a328964e64186f5022080f0eb2ec47914ccad2cd8b6459844496ad",
        5: "caa4b854ba4948ec4bdefae702101e7cbcefae2e6b348b76b51eaa528846e0ec",
        6: "db8b49e96078e0fa17ce44d8c7422e3af3d86d7bcea8f8f757e2cf068da04373",
        7: "cab42a9ee80bdf2af15b9736f44660d602367e99a795561b0cf492bb4411832a",
        8: "0251b867498bc93171524c06e8f8be77d9aa3c66bdc6f66156a9873e411106b1",
        9: "1bf4418033d56b852a49efb884ea827c7b3cd2616a24fa31a9725d72e09825bd",
        10: "e1c9fee7cdd3559e1e6fa9bd3f916f6572a4872d0f2ab8b46b5a341980ad0f56",
    }

    @pytest.mark.parametrize("n", sorted(EXHAUSTION_SHA256))
    def test_exhaustion_digests(self, n):
        fids, best = exhaust_product_strategies_a(n)
        digest = hashlib.sha256(fids.tobytes() + np.int64(best).tobytes()).hexdigest()
        assert digest == self.EXHAUSTION_SHA256[n]

    @pytest.mark.parametrize("n", [0, -1])
    def test_exhaustion_refuses_no_parties(self, n):
        with pytest.raises(ValueError, match="n_parties"):
            exhaust_product_strategies_a(n)

    @pytest.mark.parametrize("n", [EXHAUST_MAX_PARTIES + 1, 40])
    def test_exhaustion_refuses_parties_beyond_its_limit(self, n):
        # refused before the 4^N tables are built: N=40 would need 10^25 bytes
        with pytest.raises(ValueError, match=f"1..{EXHAUST_MAX_PARTIES}"):
            exhaust_product_strategies_a(n)

    def test_general_protocol_has_no_exact_evaluator(self):
        protocol = brute_force_bound_a(CommTree.chain(2)).protocol
        with pytest.raises(TypeError, match="only ProductStrategyA and ProductStrategyB"):
            fidelity_exact(protocol)


class TestFidelityExactB:
    def test_half_split_single_party_is_perfect(self):
        assert fidelity_exact(half_split_strategy_b(1, 64)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_half_split_two_parties(self):
        got = fidelity_exact(half_split_strategy_b(2, 64))
        assert got == pytest.approx(TWO_OVER_PI, abs=1e-12)

    def test_all_ones_two_parties(self):
        # the constant strategy ignores x entirely yet attains 2/pi at N=2:
        # int cos(x1+x2) over [0,pi)^2 is -4, not 0
        strategy = ProductStrategyB(np.ones((2, 64), dtype=int))
        got = fidelity_exact(strategy)
        oracle = fidelity_by_quadrature_b(strategy.signs, k=3200)
        assert got == pytest.approx(oracle, abs=1e-4)
        assert got == pytest.approx(TWO_OVER_PI, abs=1e-12)

    def test_matches_quadrature_on_random_strategies(self):
        rng = RandomStream(3, 0).generator()
        for n in (1, 2):
            for _ in range(4):
                strategy = random_strategy_b(n, 16, rng)
                oracle = fidelity_by_quadrature_b(strategy.signs, k=3200)
                assert fidelity_exact(strategy) == pytest.approx(oracle, abs=1e-4)

    def test_never_exceeds_bound(self):
        rng = RandomStream(5, 0).generator()
        for n in (2, 3, 4):
            bound = classical_bound(Task.B, n).fidelity
            for _ in range(50):
                assert fidelity_exact(random_strategy_b(n, 32, rng)) <= bound + 1e-12

    def test_parties_up_to_the_float_limit(self):
        # 2 pi^(N-1) is finite at N = 620 and overflows from 621 on
        assert 0.0 < fidelity_exact(half_split_strategy_b(620, 8)) < math.inf
        for n in (621, 700):
            with pytest.raises(ValueError, match="N <= 620"):
                fidelity_exact(half_split_strategy_b(n, 8))


class TestFidelityMC:
    def test_perfect_strategy_estimates_one_exactly(self):
        strategy = ProductStrategyA([[1, -1], [1, 1]])
        est, err = fidelity_mc(
            strategy, CommTree.chain(2), Task.A, 500, RandomStream(0, 0).generator()
        )
        assert est == 1.0 and err == 0.0

    def test_optimal_n5_strategy_hits_quarter(self):
        fids, best = exhaust_product_strategies_a(5)
        strategy = product_strategy_a_from_index(best, 5)
        est, err = fidelity_mc(
            strategy,
            CommTree.chain(5),
            Task.A,
            1_000_000,
            RandomStream(1, 0).generator(),
        )
        assert abs(est - 0.25) < 3 * err

    def test_agrees_with_exact_on_random_strategies(self):
        rng = RandomStream(21, 0).generator()
        tree = CommTree.chain(4)
        for k in range(50):
            strategy = sign_tables(k, 4)
            exact = fidelity_exact(strategy)
            est, err = fidelity_mc(strategy, tree, Task.A, 40_000, rng)
            assert abs(est - exact) <= 3 * max(err, 1e-9)
        tree_b = CommTree.chain(3)
        for k in range(50):
            strategy = random_strategy_b(3, 16, rng)
            exact = fidelity_exact(strategy)
            est, err = fidelity_mc(strategy, tree_b, Task.B, 40_000, rng)
            assert abs(est - exact) <= 3 * max(err, 1e-9)

    def test_general_protocol_path(self):
        tree = CommTree.chain(2)
        result = brute_force_bound_a(tree)
        est, err = fidelity_mc(
            result.protocol, tree, Task.A, 2000, RandomStream(3, 0).generator()
        )
        assert abs(est - result.max_fidelity) <= 3 * max(err, 1e-9)

    def test_task_strategy_mismatch_rejected(self):
        rng = RandomStream(4, 0).generator()
        with pytest.raises(ValueError, match="task"):
            fidelity_mc(sign_tables(0, 2), CommTree.chain(2), Task.B, 10, rng)
        with pytest.raises(ValueError, match="task"):
            fidelity_mc(random_strategy_b(2, 8, rng), CommTree.chain(2), Task.A, 10, rng)


class TestProductAnswers:
    """The per-party table lookups against the whole-array decompose/np.prod formula."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_task_a(self, n):
        rng = np.random.default_rng(n)
        tuples = np.array(even_sum_tuples(n))
        rows = np.concatenate([tuples, rng.integers(0, 4, size=(30_000, n))])
        for _ in range(10):
            strategy = ProductStrategyA(1 - 2 * rng.integers(0, 2, size=(n, 2)))
            got = _answers(strategy, CommTree.chain(n), rows)
            assert got.dtype == np.int64
            assert got.tobytes() == product_answers(strategy.signs, False, rows).tobytes()

    @staticmethod
    def _edge_phases(cells: int) -> np.ndarray:
        # X = 0, X = pi and every cell edge k pi / M of both halves, with their
        # float neighbours: where the flip and the floor meet
        edges = np.arange(cells + 1) * (math.pi / cells)
        edges = np.concatenate([edges, math.pi + edges, [0.0, math.pi]])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 7.0)])
        return near[(near >= 0.0) & (near < 2.0 * math.pi)]

    @pytest.mark.parametrize("cells", [7, 8, 64])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_task_b(self, cells, n):
        rng = np.random.default_rng([cells, n])
        edges = self._edge_phases(cells)
        rows = np.concatenate([
            rng.choice(edges, size=(20_000, n)),
            rng.uniform(0.0, 2.0 * math.pi, size=(20_000, n)),
            np.tile(edges[:, None], (1, n)),
        ])
        for _ in range(5):
            strategy = random_strategy_b(n, cells, rng)
            got = _answers(strategy, CommTree.star(n), rows)
            assert got.dtype == np.int64
            assert got.tobytes() == product_answers(strategy.signs, True, rows).tobytes()

    def test_no_rows(self):
        strategy = half_split_strategy_b(3, 8)
        assert _answers(strategy, CommTree.chain(3), np.empty((0, 3))).shape == (0,)


class TestClassicalBound:
    def test_values(self):
        assert classical_bound(Task.A, 5) == (0.25, 0.625)
        assert classical_bound(Task.A, 2).fidelity == 1.0
        assert classical_bound(Task.A, 1).fidelity == 1.0
        assert classical_bound(Task.B, 5).success == pytest.approx(0.5821274, abs=1e-4)
        assert classical_bound(Task.B, 1).fidelity == 1.0

    def test_even_odd_ladder(self):
        # fidelity halves when going from odd N to N+1 parties and rests at even
        assert classical_bound(Task.A, 3).fidelity == 0.5
        assert classical_bound(Task.A, 4).fidelity == 0.5
        assert classical_bound(Task.A, 6).fidelity == 0.25


CERTIFIED_TREES = {
    f"{shape}-{n}": getattr(CommTree, shape)(n)
    for shape, n in (("chain", 2), ("chain", 3), ("star", 3), ("chain", 4), ("star", 4))
}


def labelled_trees(n):
    """Every tree on parties 0..n-1 rooted at party n-1, by its parents tuple."""
    trees = []
    for parents in itertools.product(range(n), repeat=n - 1):
        try:
            trees.append(CommTree(n, parents))
        except ValueError:  # a self-loop or a cycle
            pass
    return trees


def last_sender_children(tree):
    return len(tree.children(tree.send_order()[-1]))


# every 3-party tree, and the 4-party trees whose last sender hears at most
# one child; among them trees whose last sender is not party N-2
BATCHED_TREES = [*labelled_trees(3), *(t for t in labelled_trees(4) if last_sender_children(t) < 2)]


class TestBruteForce:
    def test_n2_chain(self):
        result = brute_force_bound_a(CommTree.chain(2))
        assert result.max_fidelity == 1.0
        assert result.search_space == 4096

    def test_n3_chain_and_star_match_closed_form(self):
        for tree in (CommTree.chain(3), CommTree.star(3)):
            result = brute_force_bound_a(tree)
            assert result.max_fidelity == 0.5
            assert result.max_fidelity == classical_bound(Task.A, 3).fidelity

    def test_search_space_sizes(self):
        assert brute_force_bound_a(CommTree.chain(3)).search_space == 2**20
        assert brute_force_bound_a(CommTree.star(3)).search_space == 2**24

    def test_reduction_validity(self):
        # general-protocol max == product-strategy max == closed form
        for tree in CERTIFIED_TREES.values():
            n = tree.n_parties
            general = brute_force_bound_a(tree).max_fidelity
            fids, best = exhaust_product_strategies_a(n)
            assert general == fids[best] == classical_bound(Task.A, n).fidelity

    def test_argmax_protocol_achieves_reported_fidelity(self):
        for tree in CERTIFIED_TREES.values():
            result = brute_force_bound_a(tree)
            oracle = fidelity_by_enumeration_a(
                lambda combo: run_tables(result.protocol.tables, tree.parents, combo),
                tree.n_parties,
            )
            assert oracle == pytest.approx(result.max_fidelity, abs=1e-14)

    # argmax tables recorded from the exhaustive root-table enumeration, whose
    # ties went to the lowest protocol index
    GOLDEN_ARGMAX = {
        "chain-2": [
            [[-1], [-1], [1], [1]],
            [[-1, 1], [1, -1], [1, -1], [-1, 1]],
        ],
        "chain-3": [
            [[-1], [1], [1], [1]],
            [[1, -1], [1, -1], [-1, 1], [-1, 1]],
            [[-1, 1], [1, -1], [1, -1], [-1, 1]],
        ],
        "star-3": [
            [[-1], [1], [1], [1]],
            [[-1], [-1], [1], [1]],
            [[1, -1, -1, 1], [-1, 1, 1, -1], [-1, 1, 1, -1], [1, -1, -1, 1]],
        ],
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGMAX))
    def test_argmax_tables_golden(self, name):
        shape, n = name.split("-")
        tree = getattr(CommTree, shape)(int(n))
        tables = brute_force_bound_a(tree).protocol.tables
        assert [t.tolist() for t in tables] == self.GOLDEN_ARGMAX[name]

    def test_closed_form_root_matches_enumeration(self):
        # every root table of an 8-state root, as masks with bit s set where
        # r_s = -1; the lowest-mask maximiser must equal the closed form
        bits = (np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1
        rng = np.random.default_rng(5)
        for _ in range(300):
            v = rng.integers(-2, 3, size=8).astype(float)
            scores = np.abs((1 - 2 * bits) @ v)
            assert scores.max() == np.abs(v).sum()
            assert _best_root(v).tolist() == (1 - 2 * bits[np.argmax(scores)]).tolist()

    def test_rejects_unsupported_sizes(self):
        with pytest.raises(ValueError):
            brute_force_bound_a(CommTree.chain(5))
        with pytest.raises(ValueError):
            brute_force_bound_a(CommTree.chain(1))

    def test_deterministic_argmax(self):
        a = brute_force_bound_a(CommTree.chain(3))
        b = brute_force_bound_a(CommTree.chain(3))
        assert all(np.array_equal(x, y) for x, y in zip(a.protocol.tables, b.protocol.tables))

    # the chain (2, 0) is labelled so that its last sender, party 0, is not
    # the fastest-varying table index: ties then span outer combinations
    @pytest.mark.parametrize(
        "tree",
        [CommTree.chain(2), CommTree.chain(3), CommTree.star(3), CommTree(3, (2, 0))],
        ids=["chain-2", "chain-3", "star-3", "chain-3-relabelled"],
    )
    def test_matches_per_combination_oracle(self, tree):
        result = brute_force_bound_a(tree)
        fid, tables, space = brute_force_by_combination_a(tree.parents)
        assert result.max_fidelity == fid
        assert [t.tolist() for t in result.protocol.tables] == [t.tolist() for t in tables]
        assert result.search_space == space

    # recorded from the search that scored one combination of the other
    # senders' tables per call
    @pytest.mark.parametrize(
        "name, golden",
        [
            (
                "chain-4",
                [
                    [[-1], [-1], [1], [1]],
                    [[1, -1], [1, -1], [-1, 1], [-1, 1]],
                    [[1, -1], [1, -1], [-1, 1], [-1, 1]],
                    [[1, -1], [1, -1], [-1, 1], [-1, 1]],
                ],
            ),
            (
                "star-4",
                [
                    [[-1], [-1], [1], [1]],
                    [[-1], [-1], [1], [1]],
                    [[-1], [-1], [1], [1]],
                    [
                        [1, -1, -1, 1, -1, 1, 1, -1],
                        [1, -1, -1, 1, -1, 1, 1, -1],
                        [-1, 1, 1, -1, 1, -1, -1, 1],
                        [-1, 1, 1, -1, 1, -1, -1, 1],
                    ],
                ],
            ),
        ],
    )
    def test_four_party_argmax_tables_golden(self, name, golden):
        tables = brute_force_bound_a(CERTIFIED_TREES[name]).protocol.tables
        assert [t.tolist() for t in tables] == golden

    @pytest.mark.parametrize("combos", [1, 3])
    @pytest.mark.parametrize("tree", BATCHED_TREES, ids=lambda t: "parents-" + "".join(map(str, t.parents)))
    def test_ties_hold_across_batch_boundaries(self, tree, combos):
        want = brute_force_bound_a(tree)
        n, last = tree.n_parties, tree.send_order()[-1]
        tables = 2 ** (4 << last_sender_children(tree))
        root_states = 2 << len(tree.children(n - 1))
        sizes, scorer = [], classical._last_sender_fidelities

        def counting_scorer(*args):
            score = scorer(*args)

            def counted(batch):
                fids = score(batch)
                sizes.append(math.prod(fids.shape[:-1]))
                return fids

            return counted

        with (
            mock.patch.object(classical, "_BATCH_SCORES", combos * tables * root_states),
            mock.patch.object(classical, "_last_sender_fidelities", counting_scorer),
        ):
            got = brute_force_bound_a(tree)
        assert sizes[:-1] == [combos] * (len(sizes) - 1) and 1 <= sizes[-1] <= combos
        others = [k for k in range(n - 1) if k != last]
        assert sum(sizes) == math.prod(2 ** (4 << len(tree.children(k))) for k in others)
        assert got.max_fidelity == want.max_fidelity
        assert [t.tolist() for t in got.protocol.tables] == [t.tolist() for t in want.protocol.tables]
        assert got.search_space == want.search_space

    @pytest.mark.parametrize("name", ["chain-3", "star-3", "chain-4", "star-4"])
    def test_last_sender_scores_are_one_bincount_per_table(self, name):
        tree = CERTIFIED_TREES[name]
        tuples, weights = enumerate_a(tree.n_parties)
        tw = weights * (1 - tuples.sum(axis=1) % 4)
        score = _last_sender_fidelities(tree, tuples, tw)
        last = tree.send_order()[-1]
        shapes = [(4, 2 ** len(tree.children(k))) for k in range(tree.n_parties - 1)]
        rng = np.random.default_rng(8)
        for _ in range(3):
            tables = [1 - 2 * rng.integers(0, 2, size=shape) for shape in shapes]
            want = []
            for index in range(2 ** (4 * shapes[last][1])):
                tables[last] = sign_table(index, shapes[last])
                want.append(np.abs(root_weights_a(tables, tree.parents, tuples)).sum())
            assert score(tables).tolist() == want


def random_tree(n, rng):
    """A uniformly drawn labelled tree on n parties rooted at party n-1: parent tuples with a cycle are redrawn."""
    while True:
        try:
            return CommTree(n, tuple(rng.integers(0, n, size=n - 1)))
        except ValueError:  # a self-loop or a cycle
            pass


def gaussian_product(ws):
    z = 1 + 0j
    for w in ws:
        z *= w
    return z


def assert_state_map(tables, tree):
    """Each sender's explicit subtree count is w_k times its children's, and the best root scores the L1 norm of Z."""
    n = tree.n_parties
    z = subtree_weights_a(tables, tree.parents)
    for k in range(n - 1):
        assert z[k] == _sender_weight(tables[k]) * gaussian_product(z[j] for j in tree.children(k))
    big_z = gaussian_product(_sender_weight(table) for table in tables[:-1])
    assert big_z == gaussian_product(z[j] for j in tree.children(n - 1))
    v = root_weights_a(tables, tree.parents, np.array(even_sum_tuples(n)))
    heard_by_root = len(tree.children(n - 1))
    assert np.abs(v).sum() == 2 ** (heard_by_root + 1) * (abs(big_z.real) + abs(big_z.imag)) * 2 / 4**n


def random_tables(tree, rng):
    return [1 - 2 * rng.integers(0, 2, size=(4, 2 ** len(tree.children(k)))) for k in range(tree.n_parties)]


def tree_id(tree):
    return "parents-" + "".join(map(str, tree.parents))


class TestCertifiedBound:
    @pytest.mark.parametrize("tree", [*labelled_trees(2), *labelled_trees(3)], ids=tree_id)
    def test_state_map_holds_for_every_table_of_every_sender(self, tree):
        rng = np.random.default_rng(31)
        for k in range(tree.n_parties - 1):
            tables = random_tables(tree, rng)
            shape = tables[k].shape
            for index in range(2 ** (shape[0] * shape[1])):
                tables[k] = sign_table(index, shape)
                assert_state_map(tables, tree)

    @pytest.mark.parametrize("n", [4, 5])
    def test_state_map_holds_for_random_tables(self, n):
        rng = np.random.default_rng(32 + n)
        for tree in labelled_trees(n):
            for _ in range(2):
                assert_state_map(random_tables(tree, rng), tree)

    @pytest.mark.parametrize("children", [0, 1])
    def test_sender_weights_fill_the_square(self, children):
        # every Gaussian integer with |Re|, |Im| <= 2^c is some table's w, and no other
        shape, side = (4, 2**children), range(-(2**children), 2**children + 1)
        reached = {_sender_weight(sign_table(i, shape)) for i in range(2 ** (4 << children))}
        assert reached == {complex(a, b) for a in side for b in side}

    @pytest.mark.parametrize("tree", [t for n in (2, 3, 4) for t in labelled_trees(n)], ids=tree_id)
    def test_matches_brute_force(self, tree):
        got, want = certify_bound_a(tree), brute_force_bound_a(tree)
        assert got.max_fidelity == want.max_fidelity
        assert got.search_space == want.search_space

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("shape", ["chain", "star", "random-1", "random-2"])
    def test_corner_protocol_reaches_the_closed_form(self, n, shape):
        if shape.startswith("random"):
            tree = random_tree(n, np.random.default_rng([n, int(shape[-1])]))
        else:
            tree = getattr(CommTree, shape)(n)
        result = certify_bound_a(tree)
        want = Fraction(1, 2 ** ((n + 1) // 2 - 1))
        assert result.max_fidelity == want == classical_bound(Task.A, n).fidelity
        tables = result.protocol.tables
        reached = fidelity_by_enumeration_a(lambda combo: run_tables(tables, tree.parents, combo), n)
        assert reached == want
        corners = [complex(2**c, 2**c) for c in (len(tree.children(k)) for k in range(n - 1))]
        assert list(result.sender_weights) == corners == [_sender_weight(table) for table in tables[:-1]]

    def test_exact_where_z_is_past_float_range(self):
        # Z = (1+i) (2+2i)^1298 has parts near 2^1947
        result = certify_bound_a(CommTree.chain(1300))
        assert result.max_fidelity == Fraction(1, 2**649)

    def test_a_witness_that_misses_the_bound_raises(self):
        with mock.patch.object(classical, "_best_root", lambda v: np.ones(len(v), dtype=np.int64)):
            with pytest.raises(RuntimeError, match="misses the bound 1/2"):
                certify_bound_a(CommTree.star(3))


class TestGeneralProtocolType:
    def test_table_shape_validation(self):
        tree = CommTree.star(3)
        good = (
            np.ones((4, 1), dtype=int),
            np.ones((4, 1), dtype=int),
            np.ones((4, 4), dtype=int),
        )
        GeneralProtocolA(tree=tree, tables=good)
        with pytest.raises(ValueError):
            GeneralProtocolA(tree=tree, tables=(good[0], good[1], np.ones((4, 2), dtype=int)))
        with pytest.raises(ValueError):
            GeneralProtocolA(tree=tree, tables=good[:2])

    @pytest.mark.parametrize("tree", [CommTree.chain(3), CommTree.star(3)], ids=["chain", "star"])
    def test_batched_answers_match_recursive_oracle(self, tree):
        rng = np.random.default_rng(17)
        tuples = even_sum_tuples(tree.n_parties)
        protocols = [brute_force_bound_a(tree).protocol] + [
            GeneralProtocolA(
                tree=tree,
                tables=tuple(
                    1 - 2 * rng.integers(0, 2, size=(4, 2 ** len(tree.children(k))))
                    for k in range(tree.n_parties)
                ),
            )
            for _ in range(20)
        ]
        for proto in protocols:
            want = [run_tables(proto.tables, tree.parents, t) for t in tuples]
            assert _answers(proto, tree, np.array(tuples)).tolist() == want
            assert [run_protocol(proto, tree, t) for t in tuples] == want

    def test_tree_mismatch_in_run(self):
        proto = brute_force_bound_a(CommTree.chain(3)).protocol
        with pytest.raises(ValueError):
            run_protocol(proto, CommTree.star(3), (0, 0, 0))


class TestCoordinateAscent:
    def test_trace_monotone_from_random_starts(self):
        rng = RandomStream(4, 0).generator()
        for _ in range(10):
            _, trace = coordinate_ascent_b(random_strategy_b(3, 32, rng))
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_converged_strategy_is_a_fixed_point(self):
        rng = RandomStream(5, 0).generator()
        strategy, trace = coordinate_ascent_b(random_strategy_b(2, 64, rng))
        again, trace2 = coordinate_ascent_b(strategy)
        assert np.array_equal(again.signs, strategy.signs)
        assert len(trace2) == 2 and trace2[0] == trace2[1] == trace[-1]

    def test_half_split_optimum_is_fixed(self):
        strategy, trace = coordinate_ascent_b(half_split_strategy_b(2, 64))
        assert trace[-1] == pytest.approx(TWO_OVER_PI, abs=1e-12)

    def test_restarts_reach_the_bound_at_n2(self):
        rng = RandomStream(6, 0).generator()
        result = optimize_strategy_b(2, 64, 20, rng)
        assert result.fidelity >= 0.9865 * TWO_OVER_PI
        assert result.fidelity <= TWO_OVER_PI + 1e-12
        assert len(result.restart_fidelities) == 20

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reaches_within_budget_of_closed_form(self, n):
        rng = RandomStream(7, 0).generator()
        result = optimize_strategy_b(n, 64, 20, rng)
        target = classical_bound(Task.B, n).fidelity
        assert result.fidelity >= 0.985 * target
        assert result.fidelity <= target + 1e-12

    def test_rejects_coarse_grids(self):
        with pytest.raises(ValueError):
            coordinate_ascent_b(ProductStrategyB(np.ones((2, 4), dtype=int)))

    @pytest.mark.parametrize("max_sweeps", [0, 1, 2, MAX_SWEEPS])
    def test_one_start_matches_per_party_oracle(self, max_sweeps):
        # about one N=3 start in five still changes in a third sweep at 9 cells,
        # so a cap of 2 sweeps stops some ascents unconverged
        rng = RandomStream(8, 0).generator()
        capped = 0
        for n, cells in [(1, 8), (2, 9), (3, 9), (3, 64), (5, 16)]:
            for _ in range(10):
                start = random_strategy_b(n, cells, rng)
                strategy, trace = coordinate_ascent_b(start, max_sweeps)
                signs, want = ascend_by_party_b(start.signs.astype(float), max_sweeps)
                assert trace == want and len(trace) <= max_sweeps + 1
                assert np.array_equal(strategy.signs, signs)
                capped += len(ascend_by_party_b(start.signs.astype(float))[1]) > len(trace)
        assert capped or max_sweeps == MAX_SWEEPS

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("cells", [8, 9, 64])
    @pytest.mark.parametrize("restarts", [1, 3, 20, ASCENT_BLOCK + 1])
    def test_restarts_match_per_restart_oracle(self, n, cells, restarts):
        # every output and the generator state, as when each restart ascended alone
        for seed in (0, 1, 2):
            rng, oracle = RandomStream(seed, n).generator(), RandomStream(seed, n).generator()
            result = optimize_strategy_b(n, cells, restarts, rng)
            signs, fidelity, trace, finals = optimize_by_restart_b(n, cells, restarts, oracle)
            assert result.trace == trace and result.restart_fidelities == finals
            assert result.fidelity == fidelity and result.strategy.signs.tolist() == signs.tolist()
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_restarts_ascend_in_bounded_blocks(self):
        sizes, ascend_block = [], classical._ascend

        def ascend(signs, max_sweeps):
            sizes.append(len(signs))
            return ascend_block(signs, max_sweeps)

        with mock.patch.object(classical, "_ascend", ascend):
            result = optimize_strategy_b(2, 8, 3 * ASCENT_BLOCK + 5, RandomStream(9, 0).generator())
        assert sizes == [ASCENT_BLOCK] * 3 + [5]
        assert len(result.restart_fidelities) == 3 * ASCENT_BLOCK + 5

    def test_ties_keep_the_earliest_restart(self):
        # negating both tables leaves an N=2 fidelity unchanged, so restarts
        # end on different tables of one value
        restarts = 2 * ASCENT_BLOCK + 1
        result = optimize_strategy_b(2, 8, restarts, RandomStream(10, 0).generator())
        rng = RandomStream(10, 0).generator()
        starts = [random_strategy_b(2, 8, rng).signs.astype(float) for _ in range(restarts)]
        runs = [ascend_by_party_b(start) for start in starts]
        tied = [signs for signs, trace in runs if trace[-1] == result.fidelity]
        assert len({signs.tobytes() for signs in tied}) > 1
        assert result.strategy.signs.tolist() == tied[0].tolist()


class TestStrategyTypes:
    def test_product_a_validation(self):
        with pytest.raises(ValueError):
            ProductStrategyA([[1, 0], [1, 1]])
        with pytest.raises(ValueError):
            ProductStrategyA([[1, 1, 1]])

    def test_product_b_validation_and_cells(self):
        strategy = half_split_strategy_b(1, 8)
        assert strategy.cells == 8
        assert strategy._cell_index([0.0, math.pi / 2, math.pi - 1e-9]).tolist() == [0, 4, 7]
        with pytest.raises(ValueError):
            ProductStrategyB(np.zeros((2, 8), dtype=int))

    def test_strategy_index_round_trip(self):
        for idx in (0, 1, 37, 4**3 - 1):
            strategy = product_strategy_a_from_index(idx, 3)
            back = 0
            for k in range(3):
                t = (1 - int(strategy.signs[k, 0])) // 2
                t |= ((1 - int(strategy.signs[k, 1])) // 2) << 1
                back |= t << (2 * k)
            assert back == idx

    @pytest.mark.parametrize("index", [-1, 16, 17])
    def test_strategy_index_outside_range_refused(self, index):
        with pytest.raises(ValueError, match="outside"):
            product_strategy_a_from_index(index, 2)

    @pytest.mark.parametrize("cls, width", [(ProductStrategyA, 2), (ProductStrategyB, 8)])
    def test_zero_parties_refused(self, cls, width):
        with pytest.raises(ValueError, match="N >= 1"):
            cls(np.ones((0, width), dtype=int))

    def test_optimize_refuses_zero_parties(self):
        with pytest.raises(ValueError, match="n_parties must be >= 1"):
            optimize_strategy_b(0, 8, 1, RandomStream(0, 0).generator())
