"""numpy's per-call draws, replayed over ``random()`` doubles drawn in bulk.

A numpy ``Generator`` makes each draw from its bit generator's 64-bit
words: ``random()`` turns one word w into (w >> 11) 2**-53, a bounded
32-bit integer takes one half of a word (low half first, the high half kept
as a spare for the next 32-bit draw), and ``poisson`` as many words as its
sampler consumes.  ``random()`` keeps the top 53 bits of each word, so
doubles drawn in bulk carry the values the per-call methods would make from
the same words, and the experiment engine (:mod:`qccp.experiment`) replays
its windows from them.  Only bit generators that share PCG64's word layout
(one 64-bit word per draw, split low half first) qualify.  This module
checks the layout and holds numpy's Poisson sampler for lam >= 10, the one
of its draws the engine does not write out inline.
"""

from __future__ import annotations

import math

import numpy as np

REPLAYABLE = ("PCG64", "PCG64DXSM", "SFC64", "Philox")


def check_replayable(bits: np.random.BitGenerator) -> None:
    # by name: looking the classes up would import numpy.random with qccp
    if not isinstance(bits, tuple(getattr(np.random, name) for name in REPLAYABLE)):
        raise TypeError(
            f"cannot replay draws of {type(bits).__name__}; use one of {', '.join(REPLAYABLE)}"
        )


def poisson(d, p: int, end: int, lam: float) -> tuple[int, int]:
    """``poisson(lam)`` over the doubles d[p:end] for lam >= 10: numpy's PTRS sampler.

    Transformed rejection with squeeze (Hoermann 1993), as numpy's
    ``random_poisson`` runs it from lam = 10 on.  Returns (count, position
    after its draws), or (-1, end) when the doubles run out first.
    """
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
