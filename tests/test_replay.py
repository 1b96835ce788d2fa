import math

import numpy as np
import pytest

from qccp import replay


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 9.99, 10.0, 12.0, 16.5, 37.3])
def test_poisson_matches_numpy_draw_for_draw(lam):
    # both of numpy's samplers (products below 10, PTRS from 10 on), with
    # the generator left at the same word
    rng, twin = np.random.default_rng(int(lam * 10)), np.random.default_rng(int(lam * 10))
    expected = rng.poisson(lam, size=20_000).tolist()
    words = twin.bit_generator.random_raw(20_000 * 12)
    d = memoryview(replay.doubles(words))
    p, got = 0, []
    for _ in expected:
        k, p = replay.poisson(d, p, len(d), lam, math.exp(-lam))
        got.append(k)
    assert got == expected
    rewound = np.random.default_rng(int(lam * 10))
    if p:
        rewound.bit_generator.random_raw(p)
    assert rewound.bit_generator.state == rng.bit_generator.state


def test_poisson_reports_running_out():
    assert replay.poisson([0.9, 0.9], 0, 2, 1.0, math.exp(-1.0)) == (-1, 2)
    assert replay.poisson([0.9, 0.2], 0, 2, 1.0, math.exp(-1.0)) == (1, 2)
    assert replay.poisson([0.3], 0, 1, 12.0, math.exp(-12.0)) == (-1, 1)  # PTRS draws pairs


def test_words_as_doubles_and_halves():
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    words = rng.bit_generator.random_raw(4)
    assert replay.doubles(words[:1])[0] == twin.random()
    halves = replay.halves(words[1:3])
    assert twin.integers(0, 4, size=3).tolist() == (halves[:3] >> np.uint64(30)).tolist()
    assert twin.integers(0, 2) == halves[3] >> np.uint64(31)
    assert replay.doubles(words[3:])[0] == twin.random()

