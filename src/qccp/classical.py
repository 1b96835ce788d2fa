"""Bounded-communication classical protocols and their certified optima.

The communication model: N parties, each holding one input, exchange exactly
N-1 one-bit messages along a rooted tree whose root (party N-1, 0-based)
announces the answer.  Every non-root party sends exactly once, after hearing
from all of its children.

Because the target factorises as ``prod_k y_k`` times the reduced target on
x (:func:`qccp.tasks.decompose_batch`) and each y_k is an unbiased coin, any
protocol whose answer ignores some y_k is blind guessing.  Forcing every
message to carry its sender's y_k collapses the answer to the product form
``prod_k a_k(x_k) y_k`` with per-party sign functions a_k.  The fidelity of
such a product strategy factorises over the parties too, as
``|Re prod_k z_k| / norm`` (:func:`_product_fidelity`), for both tasks.  For
small N this module also certifies the reduction itself over ALL general
message-table protocols, product form or not.  The root's table, which
enters the fidelity linearly, is maximised in closed form; so is every table
of the last sender at once, by one matrix product.  Only the other senders'
table combinations are enumerated, in batches of bounded size that each
take one ``bincount`` and one matrix product.

A general protocol passes its messages through :func:`_input_cells` over a
batch of input rows, in single runs and Monte Carlo estimates alike, and the
exhaustive search follows the same send plan with a leading axis of table
combinations; a product strategy answers with one table lookup per party.

Closed-form optima:
    task A:  F = 2^(1-K), K = ceil(N/2)         (success (1+F)/2, 5/8 at N=5)
    task B:  F = (2/pi)^(N-1)                   (success ~0.582 at N=5)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .sampling import enumerate_a, sample_inputs
from .tasks import Task, as_task, check_domain, norm_b, row_blocks, task_value_batch, whole_array, whole_count

BRUTE_FORCE_MAX_PARTIES = 4
EXHAUST_MAX_PARTIES = 10  # exhaustion holds all 4^N products at once: ~40 MB peak at N=10
MIN_GRID_CELLS = 8  # fewest phase cells per party that coordinate ascent takes
ASCENT_BLOCK = 32  # restarts that optimize_strategy_b ascends together
MAX_SWEEPS = 500  # coordinate-ascent sweeps before a restart is stopped unconverged
_BATCH_SCORES = 1 << 18  # last-sender scores per brute-force batch: 2^16 tables x 4 root states


@dataclass(frozen=True)
class CommTree:
    """Message routing: parents[i] receives party i's bit; root is party N-1.

    Construction follows each party to the root once: a walk longer than
    N-1 steps has met a cycle.  The depths it finds fix :meth:`send_order`.
    """

    n_parties: int
    parents: tuple[int, ...]
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = whole_count("n_parties", self.n_parties, 1)
        parents = tuple(whole_count(f"parents[{i}]", p) for i, p in enumerate(self.parents))
        if len(parents) != n - 1:
            raise ValueError(f"expected {n - 1} edges, got {len(parents)}")
        for i, p in enumerate(parents):
            if p >= n or p == i:
                raise ValueError(f"invalid recipient {p} for party {i}")
        depth = [0] * (n - 1)
        for i in range(n - 1):
            k = i
            while k != n - 1:
                if depth[i] == n - 1:  # n of the n - 1 senders visited: one came twice
                    raise ValueError(f"party {i}'s bit never reaches the root: the tree has a cycle")
                k = parents[k]
                depth[i] += 1
        object.__setattr__(self, "n_parties", n)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "_order", tuple(sorted(range(n - 1), key=lambda i: (-depth[i], i))))

    @classmethod
    def chain(cls, n_parties: int) -> "CommTree":
        return cls(n_parties, tuple(range(1, whole_count("n_parties", n_parties, 1))))

    @classmethod
    def star(cls, n_parties: int) -> "CommTree":
        n = whole_count("n_parties", n_parties, 1)
        return cls(n, (n - 1,) * (n - 1))

    def children(self, party: int) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parents) if p == party)

    def send_order(self) -> tuple[int, ...]:
        """Senders ordered so every party speaks after all of its children: deepest first."""
        return self._order


@dataclass(frozen=True, eq=False)
class _ProductStrategy:
    """Per-party +-1 sign tables, one row of ``_width`` entries (None: M >= 2) per party."""

    signs: np.ndarray
    _width = None

    def __post_init__(self):
        arr = whole_array("signs", self.signs)
        if arr.ndim != 2 or len(arr) < 1 or arr.shape[1] < 2 or self._width not in (None, arr.shape[1]):
            raise ValueError(f"signs must be an (N >= 1, {self._width or 'M >= 2'}) array of +-1")
        object.__setattr__(self, "signs", arr)

    @property
    def n_parties(self) -> int:
        return self.signs.shape[0]


class ProductStrategyA(_ProductStrategy):
    """Per-party sign tables a_k(x_k) on the reduced bit, shape (N, 2)."""

    _width = 2


class ProductStrategyB(_ProductStrategy):
    """Per-party piecewise-constant signs over M uniform cells of [0, pi)."""

    @property
    def cells(self) -> int:
        return self.signs.shape[1]

    def _cell_index(self, x) -> np.ndarray:
        idx = np.floor(np.asarray(x, dtype=float) * self.cells / math.pi)
        return np.clip(idx.astype(np.int64), 0, self.cells - 1)


@dataclass(frozen=True, eq=False)
class GeneralProtocolA:
    """Arbitrary one-bit message tables for task A over a fixed tree.

    tables[k] has shape (4, 2^c_k) where c_k is party k's child count; the
    entry at (digit, received) is the +-1 bit sent (or, for the root, the
    announced answer).  Received-bit indices pack the children in ascending
    party order, one bit each, with -1 encoding bit value 1.
    """

    tree: CommTree
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.tables) != self.tree.n_parties:
            raise ValueError("one table per party required")
        tables = tuple(whole_array(f"tables[{k}]", table) for k, table in enumerate(self.tables))
        for k, table in enumerate(tables):
            want = (4, 1 << len(self.tree.children(k)))
            if table.shape != want:
                raise ValueError(f"party {k} table must be +-1 with shape {want}")
        object.__setattr__(self, "tables", tables)


Strategy = ProductStrategyA | ProductStrategyB | GeneralProtocolA


def _task_of(protocol: Strategy) -> Task:
    return Task.B if isinstance(protocol, ProductStrategyB) else Task.A


def _check_fit(protocol: Strategy, tree: CommTree) -> None:
    if isinstance(protocol, GeneralProtocolA):
        if protocol.tree != tree:
            raise ValueError("protocol was built for a different tree")
    elif protocol.n_parties != tree.n_parties:
        raise ValueError("strategy arity does not match tree")


_SendPlan = tuple[tuple[int, tuple[int, ...]], ...]


def _send_plan(tree: CommTree) -> _SendPlan:
    """(party, children) for every sender in send order, then for the root."""
    return tuple((k, tree.children(k)) for k in (*tree.send_order(), tree.n_parties - 1))


def _input_cells(plan: _SendPlan, tables, digits: np.ndarray) -> dict[int, np.ndarray]:
    """Message passing over the rows of a (rows, N) task A digit array.

    ``plan`` is the tree's :func:`_send_plan`: the senders speak in
    :meth:`CommTree.send_order`, the root last.  Each party reads its cell
    ``digit * 2^c + received``, the flat index into its (4, 2^c) table, and a
    sender sends the bit ``tables[k]`` holds there.  Returns every party's
    cell per row; the root's is its root state.
    """
    cells: dict[int, np.ndarray] = {}
    for k, children in plan:
        cell = digits[:, k] << len(children)
        for j, child in enumerate(children):
            cell = cell + (((1 - tables[child].ravel()[cells[child]]) // 2) << j)
        cells[k] = cell
    return cells


def _answers(protocol: Strategy, tree: CommTree, inputs: np.ndarray) -> np.ndarray:
    """The root's announced sign for each row of a (rows, N) input array.

    A product strategy's answer does not depend on the tree: each message
    multiplies in its sender's y_k a_k(x_k), so the root announces
    prod_k y_k a_k(x_k).  Block by block of rows, each party's factor is one
    lookup in its table (a_k, -a_k) at x_k + width * [y_k = -1], with width
    2 for task A, where that index is X_k itself, and M cells for task B.
    """
    if isinstance(protocol, GeneralProtocolA):
        cells = _input_cells(_send_plan(tree), protocol.tables, inputs)
        return protocol.tables[-1].ravel()[cells[tree.n_parties - 1]]
    tables = np.concatenate([protocol.signs, -protocol.signs], axis=1)
    answer = np.ones(len(inputs), dtype=np.int64)
    for rows in row_blocks(len(inputs)):
        block, product = inputs[rows], answer[rows]
        for k, table in enumerate(tables):
            index = block[:, k]
            if isinstance(protocol, ProductStrategyB):
                flip = index >= math.pi  # as decompose_batch
                index = protocol._cell_index(index - math.pi * flip) + protocol.cells * flip
            product *= table[index]
    return answer


def run_protocol(protocol: Strategy, tree: CommTree, inputs: Sequence) -> int:
    """The root's announced sign for one input tuple, as a one-row batch."""
    if len(inputs) != tree.n_parties:
        raise ValueError(f"expected {tree.n_parties} inputs, got {len(inputs)}")
    _check_fit(protocol, tree)
    row = check_domain(_task_of(protocol), [inputs])
    return int(_answers(protocol, tree, row)[0])


_PHASE_A = np.array([1.0, 1.0j])  # i^x for the reduced task A bit x


def _cell_integrals(cells: int) -> np.ndarray:
    """Exact integral of e^{ix} over each uniform cell of [0, pi)."""
    edges = np.arange(cells + 1) * (math.pi / cells)
    expo = np.exp(1j * edges)
    return (expo[1:] - expo[:-1]) / 1j


def _product_fidelity(z: np.ndarray, norm: float) -> np.ndarray:
    """Product-strategy fidelity |Re prod_k z_k| / norm over the last axis of z.

    Party k's z_k is its signs weighted by the phase of its reduced input:
    for task A, z_k = a_k(0) + i a_k(1), since over the even-parity bit
    strings the reduced target (-1)^(sum x / 2) is Re i^(sum x), and
    Re i^(sum x) = 0 on odd sums; the norm is 2^(N-1).  For task B,
    z_k = sum_c a_k[c] * int_cell e^{ix} dx over the cells of [0, pi)
    (:func:`_cell_integrals`), which splits the integral of
    cos(sum x) * prod a_k over the parties; the norm is 2 pi^(N-1).

    Task A's z_k are Gaussian integers, so its fidelities are exact dyadics.
    Each has modulus sqrt(2) and an argument that is an odd multiple of
    pi/4, so the product has modulus 2^(N/2) and an argument that is a
    multiple of pi/2 for even N, an odd multiple of pi/4 for odd N.  Its
    real part is then at most 2^(N/2) or 2^((N-1)/2), which bounds F by
    2^(1 - ceil(N/2)) at every N.  Dividing by ``norm`` rounds once;
    multiplying by its inverse would round twice and move task B's values
    in the last bit.
    """
    return np.abs(np.prod(z, axis=-1).real) / norm


def fidelity_exact(strategy: ProductStrategyA | ProductStrategyB) -> float:
    """Exact fidelity of a product strategy; its type names the task."""
    if not isinstance(strategy, (ProductStrategyA, ProductStrategyB)):
        raise TypeError(
            f"only ProductStrategyA and ProductStrategyB have an exact evaluator,"
            f" not {type(strategy).__name__}"
        )
    n = strategy.n_parties
    if isinstance(strategy, ProductStrategyB):
        z = strategy.signs @ _cell_integrals(strategy.cells)
        return float(_product_fidelity(z, norm_b(n)))
    return float(_product_fidelity(strategy.signs @ _PHASE_A, 2.0 ** (n - 1)))


def fidelity_mc(
    protocol: Strategy,
    tree: CommTree,
    task: Task,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo fidelity |mean(T * answer)| with its binomial standard error.

    All n_samples input rows are drawn in one batch and answered together.
    """
    n_samples = whole_count("n_samples", n_samples, 1)
    wants = _task_of(protocol)
    if as_task(task) is not wants:
        raise ValueError(f"{type(protocol).__name__} plays task {wants.value}")
    _check_fit(protocol, tree)
    inputs = sample_inputs(task, tree.n_parties, rng, size=n_samples)
    truth = task_value_batch(task, inputs)
    mean = float(np.mean(truth * _answers(protocol, tree, inputs)))
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / n_samples)
    return abs(mean), stderr


class ClassicalBound(NamedTuple):
    fidelity: float
    success: float


def classical_bound(task: Task, n_parties: int) -> ClassicalBound:
    """Closed-form optimum over all N-1 bit protocols; success = (1+F)/2."""
    n_parties = whole_count("n_parties", n_parties, 1)
    if as_task(task) is Task.A:
        k = (n_parties + 1) // 2
        fid = 2.0 ** (1 - k)
    else:
        fid = (2.0 / math.pi) ** (n_parties - 1)
    return ClassicalBound(fid, (1.0 + fid) / 2.0)


# --- exhaustive searches ---------------------------------------------------


def _sign_tables(index, shape: tuple[int, int]) -> np.ndarray:
    """+-1 tables of a 2-D shape decoded from integer indexes.

    Entry e of a table, in C order, is -1 where bit e of its index is set.
    An integer index gives one table; an index array gives one per entry.
    """
    bits = np.arange(shape[0] * shape[1]).reshape(shape)
    return 1 - 2 * ((np.asarray(index, dtype=np.int64)[..., None, None] >> bits) & 1)


def product_strategy_a_from_index(index: int, n_parties: int) -> ProductStrategyA:
    """Decode one of the 4^N product strategies: a_k(x) = -1 where bit 2k+x is set."""
    n_parties = whole_count("n_parties", n_parties, 1)
    index = whole_count("index", index, -math.inf)  # no minimum: the range test words a negative index
    if not 0 <= index < 4**n_parties:
        raise ValueError(f"strategy index {index} outside [0, 4^{n_parties})")
    return ProductStrategyA(_sign_tables(index, (n_parties, 2)))


def exhaust_product_strategies_a(n_parties: int) -> tuple[np.ndarray, int]:
    """Exact fidelity of every product strategy, indexed as above.

    Returns (fidelities over all 4^N indices, argmax index); ties resolve to
    the lowest index.  Party k's z_k depends only on base-4 digit k of the
    index, so the 4^N products are built a party at a time, each an outer
    product of that party's four z with the products so far.  Products of
    Gaussian integers are exact in any order.  The (4^N,) complex products
    take 17 MB at N=10 and four times that per added party, so N is capped
    at ``EXHAUST_MAX_PARTIES``.
    """
    n_parties = whole_count("n_parties", n_parties, 1)
    if n_parties > EXHAUST_MAX_PARTIES:
        raise ValueError(f"n_parties must be in 1..{EXHAUST_MAX_PARTIES}, got {n_parties}")
    digit_z = (_sign_tables(np.arange(4), (1, 2)) @ _PHASE_A)[:, 0]
    z = np.ones(1, dtype=complex)
    for _ in range(n_parties):  # the newest party's digit is the highest
        z = np.multiply.outer(digit_z, z).ravel()
    fids = _product_fidelity(z[:, None], 2.0 ** (n_parties - 1))
    return fids, int(np.argmax(fids))


class BruteForceResult(NamedTuple):
    max_fidelity: float
    protocol: GeneralProtocolA
    search_space: int


def _best_root(v: np.ndarray) -> np.ndarray:
    """The root answers r maximising |sum_s r_s v_s|, lowest mask first.

    Read as a mask with bit s set where r_s = -1, the maximisers are
    mask(v < 0) and mask(v > 0), with r_s = +1 wherever v_s = 0.  The lower
    of the two leaves the highest state with v_s != 0 clear, so r is sign(v)
    times that state's sign.
    """
    nonzero = np.flatnonzero(v)
    lead = np.sign(v[nonzero[-1]]) if nonzero.size else 1.0
    return np.where(v * lead < 0, -1, 1)


def _last_sender_fidelities(tree: CommTree, digits: np.ndarray, tw: np.ndarray):
    """Scorer of every table of the last sender at once, the others held fixed.

    The last sender in :meth:`CommTree.send_order` is a child of the root, so
    its bit reaches the root state alone.  With the other senders' tables
    fixed, one pass adds the weighted target ``tw`` of the ``digits`` rows into
    A[cell, s]: cell is the last sender's (digit, received) cell, s the root
    state with that sender's bit clear.  A table t sends +1 from the cells
    where t = +1, so the root's weights are P = [t = +1] @ A on those states
    and colsum(A) - P on their twins with the bit set, and t scores
    sum|P| + sum|colsum(A) - P| with the root maximised in closed form.
    The returned ``score(tables)`` gives that fidelity for each of the last
    sender's tables, by index; the last sender's entry of ``tables`` is
    ignored.

    The other entries may share a leading axis of b combinations, each
    (b, 4, 2^c), and the scores are then (b, last sender's tables).  The
    cells follow the send plan as :func:`_input_cells` does, with that batch
    axis in front: a row's received bit is one gather at (combination,
    cell), the root's state leaves the last sender's bit out, and one
    ``bincount`` with a per-combination offset fills all b of the A.
    """
    plan = _send_plan(tree)
    (last, heard), (root, heard_by_root) = plan[-2:]
    n_cells, n_states = 4 << len(heard), 2 << len(heard_by_root)
    # [t = +1] per cell of each table t: bit e of t's index clear, as _sign_tables decodes it
    plus = 1.0 - (np.arange(1 << n_cells) >> np.arange(n_cells)[:, None] & 1)

    def score(tables) -> np.ndarray:
        # the batch axes, read off the first sender's table unless the last sender is the only one
        lead = np.shape(tables[plan[0][0]])[:-2] if len(plan) > 2 else ()
        combo = np.arange(math.prod(lead))[:, None]
        sent, cells = {}, {}
        for k, children in plan:
            kept = [child for child in children if child != last]
            cell = digits[:, k] << len(kept)
            for j, child in enumerate(kept):
                cell = cell + (sent[child][combo, cells[child]] << j)
            cells[k] = cell
            if k not in (last, root):
                sent[k] = (1 - np.reshape(tables[k], (len(combo), -1))) // 2
        flat = (combo * n_cells + cells[last]) * n_states + cells[root]
        weights = tw[None].repeat(len(combo), axis=0).ravel()
        a = np.bincount(flat.ravel(), weights, len(combo) * n_cells * n_states)
        a = a.reshape(-1, n_cells, n_states).transpose(0, 2, 1)
        p = a @ plus
        twins = a.sum(axis=2)[:, :, None] - p
        fids = np.abs(p, out=p)
        fids += np.abs(twins, out=twins)
        return fids.sum(axis=1).reshape(*lead, -1)

    return score


def brute_force_bound_a(tree: CommTree) -> BruteForceResult:
    """Certified task A maximum over ALL general one-bit protocols on a tree.

    The root's table r enters the fidelity linearly: with v_s the weighted
    sum of the target over the input rows that reach root state s, it scores
    |sum_s r_s v_s|, whose maximum over all 2^(4*2^c) root tables is exactly
    sum_s |v_s|, reached by r = +-sign(v).  The root table is therefore
    maximised in closed form, and the last sender's tables are all scored at
    once by one matrix product (:func:`_last_sender_fidelities`).  The other
    senders' table combinations go to that scorer in batches: as many as
    keep a batch's scores within ``_BATCH_SCORES`` entries, the size one
    unbatched call over a two-child last sender's 2^16 tables reaches, so
    memory stays bounded whatever the tree.  ``search_space`` still counts
    every protocol the search covers.  The arithmetic is exact in dyadic
    values, which certifies both the bound and the product-form reduction at
    these sizes, in any summation order.

    Ties go to the lowest protocol index: the sender tables' indices
    compared in party order, then the root table as a mask with bit s set
    where r_s = -1.  Each (combination, last sender's table) pair has a
    mixed-radix rank in that order; each batch offers the lowest rank among
    its maxima, and batches are compared by that rank, since a later batch
    can hold a lower one when the last sender is not party N-2.
    """
    n = tree.n_parties
    if not 2 <= n <= BRUTE_FORCE_MAX_PARTIES:
        raise ValueError(f"brute force supports 2 <= N <= {BRUTE_FORCE_MAX_PARTIES}")
    tuples, weights = enumerate_a(n)
    tw = weights * task_value_batch(Task.A, tuples)
    plan = _send_plan(tree)
    shapes = [(4, 1 << len(children)) for _, children in sorted(plan)]
    counts = [1 << (r * c) for r, c in shapes]
    search_space = math.prod(counts)

    score = _last_sender_fidelities(tree, tuples, tw)
    last = plan[-2][0]
    others = [k for k in range(n - 1) if k != last]
    options = {k: _sign_tables(np.arange(counts[k]), shapes[k]) for k in others}
    strides = [math.prod(counts[k + 1 : n - 1]) for k in range(n - 1)]  # each sender's weight in the rank
    # a combination's scores: every last-sender table times the root states with its bit clear
    batch = max(1, _BATCH_SCORES // (counts[last] * 2 * shapes[-1][1]))
    combos = math.prod(counts[k] for k in others)
    best_fid, best_rank = -1.0, 0
    for first in range(0, combos, batch):
        rest = np.arange(first, min(first + batch, combos))
        rank, tables = np.zeros_like(rest), [None] * (n - 1)
        for k in reversed(others):  # party order: the lowest party's index varies slowest
            rest, index = np.divmod(rest, counts[k])
            rank, tables[k] = rank + index * strides[k], options[k][index]
        fids = score(tables).reshape(-1, counts[last])
        top = fids.max()
        if top >= best_fid:
            combo, table = np.nonzero(fids == top)
            lowest = int((rank[combo] + table * strides[last]).min())
            if top > best_fid or lowest < best_rank:
                best_fid, best_rank = float(top), lowest

    senders = tuple(_sign_tables(best_rank // s % c, shape) for s, c, shape in zip(strides, counts, shapes))
    state = _input_cells(plan, senders, tuples)[n - 1]
    root = _best_root(np.bincount(state, weights=tw, minlength=math.prod(shapes[-1])))
    protocol = GeneralProtocolA(tree=tree, tables=(*senders, root.reshape(shapes[-1])))
    return BruteForceResult(best_fid, protocol, search_space)


# --- coordinate ascent for task B ------------------------------------------


class AscentResult(NamedTuple):
    strategy: ProductStrategyB
    trace: tuple[float, ...]


class OptimizeResult(NamedTuple):
    strategy: ProductStrategyB
    fidelity: float
    trace: tuple[float, ...]
    restart_fidelities: tuple[float, ...]


def _ascend(signs: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate ascent on a (restarts, N, M) stack of +-1 float tables, in place.

    Holding the other parties fixed, the objective is linear in party k's
    cell signs with coefficients Re(I_c * prod_{j!=k} z_j); each update sets
    every cell to the coefficient's sign, which maximises the conditional
    objective exactly.  Cells whose coefficient is exactly zero keep their
    previous sign (avoids limit cycles).  A sweep updates the parties in
    turn, each for every restart at once.  A restart whose sweep changes
    nothing is a fixed point, since its update reads only its own row; the
    ascent stops when every restart is at one, or after ``max_sweeps``.

    Returns the fidelities as a (sweeps + 1, restarts) array, row s holding
    each restart's value after s sweeps, and each restart's trace length:
    one more than its sweeps up to its first unchanged one.  A changed z_k
    is recomputed as a (rows, 1, M) product, which rounds as a lone
    ``row @ cell_int`` does; a 2-D (rows, M) product takes another BLAS
    path and can differ in the last bit.
    """
    n, cells = signs.shape[1:]
    cell_int = _cell_integrals(cells)
    norm = norm_b(n)
    z = signs @ cell_int
    fids = [_product_fidelity(z, norm)]
    lengths = np.ones(len(signs), dtype=np.int64)
    ascending = np.ones(len(signs), dtype=bool)
    for _ in range(max_sweeps):
        lengths += ascending
        ascending = np.zeros(len(signs), dtype=bool)
        for k in range(n):
            others = np.prod(np.delete(z, k, axis=1), axis=1)
            coeff = (cell_int * others[:, None]).real
            new = np.where(coeff > 0.0, 1.0, np.where(coeff < 0.0, -1.0, signs[:, k]))
            moved = (new != signs[:, k]).any(axis=1)
            if moved.any():
                signs[moved, k] = new[moved]
                z[moved, k] = (new[moved, None] @ cell_int)[:, 0]
                ascending |= moved
        fids.append(_product_fidelity(z, norm))
        if not ascending.any():
            break
    return np.array(fids), lengths


def coordinate_ascent_b(init: ProductStrategyB, max_sweeps: int = MAX_SWEEPS) -> AscentResult:
    """Ascend the task B fidelity over one party's cell signs at a time.

    The one-start call of the kernel (:func:`_ascend`) that
    :func:`optimize_strategy_b` runs on blocks of restarts together, where
    ties keep the earliest restart.  The per-sweep fidelity trace is
    monotone non-decreasing; iteration stops at the first unchanged sweep.
    """
    whole_count("cells", init.cells, MIN_GRID_CELLS)
    signs = init.signs[None].astype(np.float64)
    fids, _ = _ascend(signs, whole_count("max_sweeps", max_sweeps))
    return AscentResult(ProductStrategyB(signs[0]), tuple(fids[:, 0].tolist()))


def random_strategy_b(
    n_parties: int, cells: int, rng: np.random.Generator
) -> ProductStrategyB:
    shape = whole_count("n_parties", n_parties, 1), whole_count("cells", cells, 2)
    return ProductStrategyB(1 - 2 * rng.integers(0, 2, size=shape))


def half_split_strategy_b(n_parties: int, cells: int) -> ProductStrategyB:
    """The step strategy +1 on [0, pi/2), -1 after: optimal in the continuum."""
    n_parties, cells = whole_count("n_parties", n_parties, 1), whole_count("cells", cells, 2)
    row = np.where(np.arange(cells) < cells // 2, 1, -1)
    return ProductStrategyB(np.tile(row, (n_parties, 1)))


def optimize_strategy_b(
    n_parties: int,
    cells: int,
    restarts: int,
    rng: np.random.Generator,
) -> OptimizeResult:
    """Coordinate ascent from random sign starts; keeps the best fixed point.

    The objective is non-concave over the sign lattice, hence the restarts.
    Each restart draws its start as :func:`random_strategy_b` does, one
    ``rng.integers`` call after the other, and the restarts ascend together
    (:func:`_ascend`) in blocks of ``ASCENT_BLOCK``, so memory stays bounded
    for any number of restarts.  Ties keep the earliest restart, so results
    are reproducible for a fixed generator state.
    """
    n_parties = whole_count("n_parties", n_parties, 1)
    cells = whole_count("cells", cells, MIN_GRID_CELLS)
    restarts = whole_count("restarts", restarts, 1)
    finals: list[float] = []
    best_fid = -1.0
    for first in range(0, restarts, ASCENT_BLOCK):
        count = min(ASCENT_BLOCK, restarts - first)
        draws = [rng.integers(0, 2, size=(n_parties, cells)) for _ in range(count)]
        signs = 1.0 - 2.0 * np.stack(draws)
        fids, lengths = _ascend(signs, MAX_SWEEPS)
        i = int(np.argmax(fids[-1]))
        if fids[-1, i] > best_fid:
            best, best_fid, trace = signs[i], fids[-1, i], fids[: lengths[i], i].tolist()
        finals += fids[-1].tolist()
    strategy = ProductStrategyB(best)
    return OptimizeResult(strategy, trace[-1], tuple(trace), tuple(finals))
