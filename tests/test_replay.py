import numpy as np
import pytest

from qccp import replay


@pytest.mark.parametrize("lam", [10.0, 12.0, 16.5, 37.3])
def test_poisson_matches_numpy_draw_for_draw(lam):
    # numpy's PTRS sampler, from lam = 10 on, with the generator left at the
    # same word; the experiment engine's tests cover its inline sampler below 10
    rng, twin = np.random.default_rng(int(lam * 10)), np.random.default_rng(int(lam * 10))
    expected = rng.poisson(lam, size=20_000).tolist()
    d = memoryview(twin.random(20_000 * 12))
    p, got = 0, []
    for _ in expected:
        k, p = replay.poisson(d, p, len(d), lam)
        got.append(k)
    assert got == expected
    rewound = np.random.default_rng(int(lam * 10))
    if p:
        rewound.bit_generator.random_raw(p)
    assert rewound.bit_generator.state == rng.bit_generator.state


def test_poisson_reports_running_out():
    assert replay.poisson([0.3], 0, 1, 12.0) == (-1, 1)  # PTRS draws pairs


def test_words_as_doubles_and_halves():
    # what the experiment engine reads its draws by: random() of a word w is
    # (w >> 11) 2**-53, so d 2**53 gives w >> 11 back exactly; integers(0, 4)
    # and integers(0, 2) read each 32-bit half's top bits, low half first,
    # which are bits 19-20 and 51-52 of w >> 11; a spare high half is bits 21-52
    for name in replay.REPLAYABLE:
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
