"""Target functions, input domains and densities for the two multiparty games.

Task A: each of the N parties holds a quaternary digit X_k in {0,1,2,3},
promised to have an even total.  The goal is the sign ``1 - (sum X_k) mod 4``
(+1 when the sum is 0 mod 4, -1 when it is 2 mod 4).  Everything on this path
is exact integer arithmetic; no floats are involved.

Task B: each party holds a real phase X_k in [0, 2*pi), jointly distributed
with density ``|cos(sum X)| / (4 (2*pi)^(N-1))``.  The goal is the sign of
cos(sum X).  Every task B decision (this sign, the sampler's and the
engine's acceptance, and the quantum answer) is u < prob(cos), taken by
:func:`accept_below` from a float32 cosine (:func:`rough_cos`) and settled
in float64 ``np.cos`` only on rows within its error bound of the edge, so
each is exactly the float64 decision.  :func:`coherence`, which callers use
for the value itself, stays float64 throughout.

Both tasks admit the same reduction: write X_k as a sign y_k plus a reduced
coordinate x_k (a bit for A, a value in [0, pi) for B).  The target then
factorises as ``prod_k y_k`` times the target on x alone, which is what
confines optimal one-bit protocols to product form (see
:mod:`qccp.classical`).

Task A's distribution is taken UNIFORM over the 4^N/2 even-sum tuples.  Only
the even-sum promise is intrinsic to the task; uniformity is the modelling
assumption under which the quoted classical bound P = 5/8 at N=5 holds, and
every sampler and fidelity sum in this package uses it.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from enum import Enum
from typing import Sequence

import numpy as np

TIE_EPS = 1e-12
_BELOW_TWO_PI = np.nextafter(2.0 * math.pi, 0.0)
ROW_BLOCK = 1 << 13  # rows a column kernel takes at a time; keeps its temporaries in cache
COS_GUARD = 2.0**-14  # float32 np.cos's error (<= 1.49 ulp, below 2^-22) with a 2^8 margin


class Task(Enum):
    """The two supported games: quaternary modulo-4 sum (A), cosine sign (B)."""

    A = "A"
    B = "B"


class PromiseViolationError(ValueError):
    """Task A input whose digit sum is odd (outside the promised domain)."""


class CosineTieError(ValueError):
    """Task B sign query with |cos(sum)| below tolerance: the sign is undefined.

    The event has probability zero under the task density, so hitting it
    signals bad inputs rather than bad luck.
    """


_PHASES = {  # task B's upper end and its message, by ``reduced``
    False: (2.0 * math.pi, "task B inputs must lie in [0, 2*pi)"),
    True: (math.pi, "reduced task B inputs must lie in [0, pi)"),
}


def check_domain(task: Task, rows, reduced: bool = False) -> np.ndarray:
    """Validate a (rows, N) input array, N >= 1, against the task's domain.

    Returns the rows as int64 digits (task A) or float64 phases (task B).
    ``reduced`` checks the reduced coordinates x instead.  Task A digits
    follow :func:`whole_array`; a phase that is NaN, complex, text or an
    object fails.
    """
    task, arr = as_task(task), np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"expected a (rows, N) array with N >= 1, got shape {arr.shape}")
    if task is Task.A:
        return whole_array("task A bits" if reduced else "task A digits", arr, 0, 1 if reduced else 3)
    top, message = _PHASES[reduced]
    if arr.dtype.kind not in "biuf" or arr.size and not (0 <= arr.min() and arr.max() < top):
        raise ValueError(message)
    return arr.astype(np.float64, copy=False)


def as_task(task) -> Task:
    """``task`` as a :class:`Task` member, every task argument's one rule: anything else, text too, fails."""
    if not isinstance(task, Task):
        raise TypeError(f"task must be Task.A or Task.B, got {task!r}")
    return task


def whole_array(name: str, values, low: int = -1, high: int | None = 1, dtype=np.int64) -> np.ndarray:
    """A caller's integer, sign or flag array as ``dtype``: every such array's one rule.

    Bool, integer and whole-float entries in low..high pass (``high`` None:
    up to int64's limit); the default -1..1 means the signs +-1, so 0 fails.
    Anything else (a fraction, NaN, inf, text, complex) raises a ValueError
    naming ``name``.  Signs are tested by ``abs``, ranges by min and max: an
    integer modulo would cost over ten times as much on a long column.
    """
    arr = np.asarray(values)
    numeric = arr.dtype.kind in "biuf"
    if (low, high) == (-1, 1):
        whole, rule = numeric and (np.abs(arr) == 1).all(), "+-1"
    else:
        top = 2**63 if high is None else high + 1
        fractions = arr.dtype.kind == "f" and not (arr == np.floor(arr)).all()
        whole = numeric and not fractions and (not arr.size or low <= arr.min() and arr.max() < top)
        rule = f"whole numbers >= {low}" if high is None else f"whole numbers in {low}..{high}"
    if not whole:
        raise ValueError(f"{name} must be an array of {rule}")
    return arr.astype(dtype, copy=False)


def whole_count(name: str, value, minimum: float = 0) -> int:
    """A count argument as an int, as ``operator.index`` takes it: every count's one rule.

    A value that is not an integer (a float, even a whole one) raises a
    TypeError naming ``name``; numpy integers pass.  One below ``minimum``
    raises a ValueError.  Upper limits stay with the code that sets them.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def real_in(name: str, value, low: float, high: float = math.inf, open_low: bool = False) -> float:
    """A real-valued argument as a float in [low, high], or (low, high]: every such argument's one rule.

    A bool, int, float, or numpy real scalar or 0-d array passes; anything else (text, complex, None,
    an array) raises a TypeError naming ``name``, and NaN, +-inf or an out-of-range value a ValueError.
    """
    if isinstance(value, (np.ndarray, np.generic)) and value.ndim == 0 and value.dtype.kind in "biuf":
        value = value.item()
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    x = float(value) if abs(value) <= sys.float_info.max else math.inf  # NaN and ints past float's range fail
    if not (math.isfinite(x) and (low < x if open_low else low <= x) and x <= high):
        bounds = f"{'(' if open_low else '['}{low:g}, {high:g}]"
        words = {"(0, inf]": "be positive and finite", "[0, inf]": "be non-negative and finite"}
        raise ValueError(f"{name} must {words.get(bounds, f'lie in {bounds}')}, got {value!r}")
    return x


def row_blocks(count: int) -> list[slice]:
    """Slices of at most ROW_BLOCK rows that cover rows 0..count-1 in order."""
    return [slice(lo, lo + ROW_BLOCK) for lo in range(0, count, ROW_BLOCK)]


def row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of each row of an int64 or float64 (rows, N) array, bit for bit ``sum(axis=1)``.

    Adds the columns left to right into one accumulator per block of rows,
    with no reduction along the short party axis, and reads each block from
    memory once.  For N < 8 that is numpy's own order for floats (its
    pairwise summation only starts at 8 terms); int64 sums are exact in any
    order.  Float arrays with N >= 8, and N = 0, fall back to ``sum(axis=1)``.
    """
    n = rows.shape[1]
    if n == 0 or (n >= 8 and rows.dtype.kind == "f"):
        return rows.sum(axis=1)
    total = np.empty(len(rows), dtype=rows.dtype)
    for block in row_blocks(len(rows)):
        part, acc = rows[block], total[block]
        np.copyto(acc, part[:, 0])
        for k in range(1, n):
            acc += part[:, k]
    return total


def coherence(task: Task, rows) -> np.ndarray:
    """cos(sum X) for each row of a (rows, N) input array.

    Task A returns the exact integer +-1 from the digit sum mod 4 and raises
    PromiseViolationError on odd sums; task B is numpy's float64 cosine of
    the row sum.
    """
    arr = check_domain(task, rows)
    if task is Task.B:
        total = row_sum(arr)
        return np.cos(total, out=total)
    q = row_sum(arr) & 3  # digits are non-negative, so & 3 is % 4
    if (q & 1).any():
        raise PromiseViolationError("inputs contain odd-sum tuples")
    return 1 - q


def rough_cos(total: np.ndarray) -> tuple[np.ndarray, float]:
    """float32 ``np.cos`` of float64 sums, widened to float64, and a bound on its error.

    Returns (rough, guard) with |np.cos(total) - rough| < guard on every row,
    where guard = COS_GUARD + max|total| 2^-23.  Rounding a sum s to float32
    moves it by at most |s| 2^-24, and cos moves no more than its argument;
    float32 ``np.cos`` is within 1.49 float32 ulp, below 2^-22 for values in
    [-1, 1], and float64 ``np.cos`` within 2^-53.  The total stays below
    guard - 2^-15.  A decision taken from ``rough`` is therefore the float64
    one on every row outside guard of its edge:

    - u < P(cos s), for P = |c| or (1 + V c)/2 with V in [0, 1]: P moves by
      at most |np.cos(s) - rough| plus 2^-52 of rounding, less than guard,
      so the rows with |u - P(rough)| >= guard decide alike;
    - sign(cos s), which is 0 < c, P = c with u = 0: a row with
      |rough| >= guard has |np.cos(s)| above 2^-15, far from TIE_EPS, and
      the same sign (:func:`task_value_batch`).

    :func:`accept_below` settles the remaining rows with float64 ``np.cos``.
    """
    rough = total.astype(np.float32)
    guard = COS_GUARD + float(np.abs(total).max(initial=0.0)) * 2.0**-23
    return np.cos(rough, out=rough).astype(np.float64), guard


def accept_below(u: np.ndarray, rows: np.ndarray, prob) -> tuple[np.ndarray, float]:
    """u < prob(np.cos(row sum)) for each row of a (rows, N) float64 array: the float64 answer.

    ``prob`` maps cosines to probabilities and moves no more than they do
    (|c|, c or (1 + V c)/2, see :func:`rough_cos`).  Works a block of rows
    at a time from :func:`rough_cos`; rows whose uniform lies within guard
    of prob(rough) are settled with float64 ``np.cos``.  Returns (accept,
    margin): margin is the smallest float64 |u - prob(cos)| of the settled
    rows, inf if none was, and every margin below guard is one of them.
    """
    accept = np.empty(len(rows), dtype=bool)
    margin = math.inf
    for block in row_blocks(len(rows)):
        total = row_sum(rows[block])
        rough, guard = rough_cos(total)
        p, ub, out = prob(rough), u[block], accept[block]
        np.less(ub, p, out=out)
        near = np.flatnonzero(np.abs(ub - p) < guard)
        if len(near):
            exact = prob(np.cos(total[near]))
            out[near] = ub[near] < exact
            margin = min(margin, float(np.abs(ub[near] - exact).min()))
    return accept, margin


def task_value_batch(task: Task, inputs) -> np.ndarray:
    """The game's target sign, sign(cos(sum X)), for each row of a (runs, N) array.

    Raises PromiseViolationError for odd-sum task-A rows and CosineTieError
    when a task-B cosine is within TIE_EPS of zero.  Task A's target is its
    exact coherence; task B's sign is 0 < cos, decided by
    :func:`accept_below`, whose margin is the smallest settled |cos|.
    """
    if as_task(task) is Task.A:
        return coherence(task, inputs)
    arr = check_domain(task, inputs)
    positive, tie = accept_below(np.broadcast_to(0.0, len(arr)), arr, lambda c: c)
    if tie < TIE_EPS:
        raise CosineTieError(f"|cos(sum)| = {tie:.3e} below {TIE_EPS:.1e}")
    return np.where(positive, 1, -1)


def task_value(task: Task, inputs: Sequence) -> int:
    """:func:`task_value_batch` on one input tuple."""
    return int(task_value_batch(task, [inputs])[0])


def decompose_batch(task: Task, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each X_k into its random sign y_k and reduced coordinate x_k.

    Task A: X_k = (1 - y_k) + x_k with x_k = X_k mod 2, y_k = +1 for X_k < 2.
    Task B: X_k = pi (1 - y_k)/2 + x_k with x_k in [0, pi).
    The rows pass :func:`check_domain` first, as :func:`compose`'s do, so a
    digit or phase outside the domain raises its ``ValueError``.  Returns
    (x, y) arrays of the rows' shape; y is int64 +-1.
    """
    inputs = check_domain(task, inputs)
    if task is Task.A:
        return inputs % 2, np.where(inputs < 2, 1, -1)
    flip = inputs >= math.pi
    return np.where(flip, inputs - math.pi, inputs), np.where(flip, -1, 1)


def compose(task: Task, x, y) -> np.ndarray:
    """Row inverse of :func:`decompose_batch`: X from (rows, N) arrays x and y.

    Bit-exact for task A; within 1 ulp for task B, where X_k = pi + x_k
    when y_k = -1, kept below 2 pi where that sum rounds up to it.
    """
    x = check_domain(task, x, reduced=True)
    y = whole_array("y", y)
    if y.shape != x.shape:
        raise ValueError(f"y must be a +-1 array of shape {x.shape}")
    if task is Task.A:
        return (1 - y) + x
    return np.where(y == 1, x, np.minimum(math.pi + x, _BELOW_TWO_PI))


def density_b(rows) -> np.ndarray:
    """Task B joint density |cos(sum X)| / (4 (2*pi)^(N-1)) of each row on [0, 2*pi)^N.

    Its normaliser overflows a float from N = 387 on, and such N are refused with ``ValueError``.
    """
    c = coherence(Task.B, rows)
    n = np.shape(rows)[1]
    limit = 1 + int(math.log(np.finfo(float).max / 4.0, 2.0 * math.pi))
    if n > limit:
        raise ValueError(f"task B's density needs N <= {limit} parties: 4 (2 pi)^(N-1) overflows")
    return np.abs(c) / (4.0 * (2.0 * math.pi) ** (n - 1))


def norm_b(n_parties: int) -> float:
    """2 pi^(N-1), the integral of |cos(sum x)| over [0, pi)^N, which normalises task B.

    It overflows a float from N = 621 on, and such N are refused with ``ValueError``.
    """
    limit = 1 + int(math.log(np.finfo(float).max / 2.0, math.pi))
    if n_parties > limit:
        raise ValueError(f"task B needs N <= {limit} parties: 2 pi^(N-1) overflows a float")
    return 2.0 * math.pi ** (n_parties - 1)


def reduced_density(task: Task, x) -> np.ndarray:
    """Density of each row of reduced coordinates; p(X) = 2^-N * p'(x).

    Task A: uniform 2^-(N-1) on even-parity bit strings, 0 off support.
    Task B: |cos(sum x)| / (2 pi^(N-1)) on [0, pi)^N.
    """
    rows = check_domain(task, x, reduced=True)
    n = rows.shape[1]
    if task is Task.A:
        return np.where(rows.sum(axis=1) % 2, 0.0, 2.0 ** (-(n - 1)))
    return np.abs(coherence(task, rows)) / norm_b(n)
