"""numpy's per-call draw algorithms, replayed over raw 64-bit generator words.

A numpy ``Generator`` turns its bit generator's 64-bit words into values:
``random()`` takes one word, a bounded 32-bit integer one half of a word
(low half first, the high half kept as a spare for the next 32-bit draw),
``poisson`` as many words as its sampler consumes.  Replaying those
algorithms over words drawn in bulk with ``bit_generator.random_raw`` gives
the values the per-call methods give, bit for bit, and leaves the generator
where they leave it.  Only bit generators that share PCG64's word layout
(one 64-bit word per draw, split low half first) qualify.
"""

from __future__ import annotations

import math

import numpy as np

REPLAYABLE = ("PCG64", "PCG64DXSM", "SFC64", "Philox")

_LOW = np.uint64(0xFFFFFFFF)


def check_replayable(bits: np.random.BitGenerator) -> None:
    # by name: looking the classes up would import numpy.random with qccp
    if not isinstance(bits, tuple(getattr(np.random, name) for name in REPLAYABLE)):
        raise TypeError(
            f"cannot replay draws of {type(bits).__name__}; use one of {', '.join(REPLAYABLE)}"
        )


def doubles(words: np.ndarray) -> np.ndarray:
    """``random()`` of each word: its top 53 bits over 2**53."""
    return np.multiply(words >> np.uint64(11), 2.0**-53)


def halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit draws the words supply, in order: each word's low half, then its high half."""
    out = np.empty(2 * len(words), dtype=np.uint64)
    out[0::2] = words & _LOW
    out[1::2] = words >> np.uint64(32)
    return out


def poisson(d, p: int, end: int, lam: float, exp_neg_lam: float) -> tuple[int, int]:
    """``poisson(lam)`` over the doubles d[p:end]: numpy's ``random_poisson``.

    No draw for lam = 0, a product of uniforms against ``exp_neg_lam`` =
    exp(-lam) below 10, PTRS from 10 on.  Returns (count, position after
    its draws), or (-1, end) when the doubles run out first.
    """
    if lam >= 10.0:
        return _poisson_ptrs(d, p, end, lam)
    k = 0
    prod = 1.0
    while lam > 0.0:
        if p == end:
            return -1, end
        prod *= d[p]
        p += 1
        if prod <= exp_neg_lam:
            break
        k += 1
    return k, p


def _poisson_ptrs(d, p: int, end: int, lam: float) -> tuple[int, int]:
    """numpy's sampler for lam >= 10: transformed rejection with squeeze (Hoermann 1993)."""
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    while p + 2 <= end:
        U = d[p] - 0.5
        V = d[p + 1]
        p += 2
        us = 0.5 - abs(U)
        if us == 0.0:  # numpy's count is then floor(-inf) < 0: another round
            continue
        k = math.floor((2 * a / us + b) * U + lam + 0.43)
        if us >= 0.07 and V <= vr:
            return k, p
        if k < 0 or (us < 0.013 and V > us):
            continue
        log_v = math.log(V) if V > 0.0 else -math.inf
        if log_v + math.log(invalpha) - math.log(a / (us * us) + b) <= (
            -lam + k * loglam - _loggam(k + 1)
        ):
            return k, p
    return -1, end


_LOGGAM_COEFFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: log Gamma(x) in its own operation order."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for coeff in _LOGGAM_COEFFS[8::-1]:
        gl0 *= x2
        gl0 += coeff
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl
