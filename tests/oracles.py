"""Independent numerical oracles shared by the test modules.

Everything here recomputes expected values from first principles (midpoint
quadrature, explicit enumeration) so the tests never certify the library
against itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def midpoints(lo: float, hi: float, k: int) -> np.ndarray:
    return lo + (np.arange(k) + 0.5) * (hi - lo) / k


def quadrature_nd(fn, lo: float, hi: float, dims: int, k: int) -> float:
    """Midpoint-rule integral of fn(points) over [lo, hi)^dims.

    ``fn`` receives a (k^dims, dims) array and returns one value per row.
    """
    axes = [midpoints(lo, hi, k)] * dims
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)
    cell = ((hi - lo) / k) ** dims
    return float(np.sum(fn(grid)) * cell)


def quadrature_1d(fn, lo: float, hi: float, k: int) -> float:
    x = midpoints(lo, hi, k)
    return float(np.sum(fn(x)) * (hi - lo) / k)


def task_value_a(digits) -> int:
    """Task A target of one promised tuple: 1 - (digit sum mod 4)."""
    return 1 - sum(digits) % 4


def task_value_b(phases) -> int:
    """Task B target of one tuple: the sign of cos of the exactly rounded sum."""
    return 1 if math.cos(math.fsum(phases)) > 0.0 else -1


def even_sum_tuples(n_parties: int) -> list[tuple[int, ...]]:
    """All quaternary tuples with an even digit sum, brute force."""
    return [
        combo
        for combo in itertools.product(range(4), repeat=n_parties)
        if sum(combo) % 2 == 0
    ]


def enumerate_reduced_a(n_parties: int) -> np.ndarray:
    """All even-parity bit strings of length N, shape (2^(N-1), N), in lexicographic order."""
    return np.array(
        [bits for bits in itertools.product((0, 1), repeat=n_parties) if sum(bits) % 2 == 0]
    )


def product_fidelities_by_parity_a(signs: np.ndarray, block: int = 4096) -> np.ndarray:
    """Exact fidelities of a stack of task A product strategies, shape (S, N, 2).

    Sums (-1)^(sum x / 2) * prod_k a_k(x_k) over the 2^(N-1) even-parity bit
    strings x with uniform weight 2^(1-N), ``block`` strategies at a time.
    Every term is dyadic, so the sums carry no rounding error.
    """
    n = signs.shape[1]
    bits = enumerate_reduced_a(n)
    f = np.where((bits.sum(axis=1) // 2) % 2 == 1, -1.0, 1.0)
    out = np.empty(len(signs))
    for lo in range(0, len(signs), block):
        part = signs[lo : lo + block]
        prods = np.prod(part[:, np.arange(n)[None, :], bits], axis=2, dtype=np.float64)
        out[lo : lo + block] = np.abs(prods @ f) * 2.0 ** (1 - n)
    return out


def fidelity_by_enumeration_a(answer_fn, n_parties: int) -> float:
    """|E[T * answer]| over the uniform even-sum ensemble, by direct summation.

    ``answer_fn`` maps one input tuple to a +-1 answer.  Used as the
    cross-check for the reduced-space fidelity evaluators.
    """
    tuples = even_sum_tuples(n_parties)
    total = 0.0
    for combo in tuples:
        truth = 1 - (sum(combo) % 4)
        total += truth * answer_fn(combo)
    return abs(total) / len(tuples)


def run_tables(tables, parents, digits) -> int:
    """Recursive message passing for one input tuple; returns the root's sign.

    Party k outputs tables[k][digit][received], where ``received`` packs its
    children in ascending party order, bit j set when child j sent -1.  The
    root is the last party.  Each party's message is computed on demand from
    its children's, independent of any send order.
    """
    n = len(tables)

    def message(k: int) -> int:
        children = [c for c in range(n - 1) if parents[c] == k]
        received = sum((message(c) == -1) << j for j, c in enumerate(children))
        return int(tables[k][digits[k]][received])

    return message(n - 1)


def fidelity_by_quadrature_b(strategy_signs: np.ndarray, k: int = 2000) -> float:
    """Task B product-strategy fidelity by midpoint quadrature on [0, pi)^N.

    Independent of the closed-form cell-integral evaluator: integrates
    cos(sum x) * prod_k a_k(x_k) numerically.  ``k`` should be a multiple of
    the cell count so cell boundaries align with the quadrature grid.
    """
    n, cells = strategy_signs.shape
    xs = midpoints(0.0, math.pi, k)
    cell_idx = np.minimum((xs * cells / math.pi).astype(int), cells - 1)
    if n == 1:
        vals = np.cos(xs) * strategy_signs[0][cell_idx]
        integral = vals.sum() * (math.pi / k)
    elif n == 2:
        a0 = strategy_signs[0][cell_idx]
        a1 = strategy_signs[1][cell_idx]
        vals = np.cos(xs[:, None] + xs[None, :]) * a0[:, None] * a1[None, :]
        integral = vals.sum() * (math.pi / k) ** 2
    else:
        raise ValueError("quadrature oracle supports N <= 2")
    return abs(integral) / (2.0 * math.pi ** (n - 1))


def binned_abs_cos_density(edges: np.ndarray, k_per_bin: int = 4000) -> np.ndarray:
    """Probability of each bin under |cos x|/4 on [0, 2*pi), by quadrature."""
    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        probs.append(quadrature_1d(lambda x: np.abs(np.cos(x)) / 4.0, lo, hi, k_per_bin))
    return np.asarray(probs)


def root_weights_a(tables, parents, digits: np.ndarray) -> np.ndarray:
    """Weighted target per root state of a general task A protocol.

    Each party's cell ``digit * 2^c + received`` (received packed as in
    :func:`run_tables`) is computed recursively over all rows of ``digits``,
    a (rows, N) array of every even-sum tuple.  Returns v with v_s the
    uniform-weight sum of the target over the rows reaching root state s,
    so the best root table scores sum_s |v_s|.
    """
    n = digits.shape[1]

    def cell(k: int) -> np.ndarray:
        children = [c for c in range(n - 1) if parents[c] == k]
        out = digits[:, k] * 2 ** len(children)
        for j, c in enumerate(children):
            out = out + (np.asarray(tables[c]).ravel()[cell(c)] == -1) * 2**j
        return out

    truth = 1 - digits.sum(axis=1) % 4
    size = 4 * 2 ** sum(1 for p in parents if p == n - 1)
    return np.bincount(cell(n - 1), weights=truth / len(digits), minlength=size)


def subtree_weights_a(tables, parents) -> list[complex]:
    """z_k of every sender k of a general task A protocol, by explicit count.

    z_k is the sum of i^(digit sum of k's subtree) over the subtree's inputs
    on which k sends +1.  Every party's message is computed recursively over
    all 4^N digit tuples, odd sums included; each subtree input then appears
    once per digit tuple of the other parties, and the sum is divided by
    that count.
    """
    n = len(parents) + 1
    digits = np.arange(4**n)[:, None] // 4 ** np.arange(n) % 4
    children = [[c for c in range(n - 1) if parents[c] == k] for k in range(n)]

    def message(k: int) -> np.ndarray:
        received = sum((message(c) == -1) * 2**j for j, c in enumerate(children[k]))
        return np.asarray(tables[k])[digits[:, k], received]

    def subtree(k: int) -> list[int]:
        return [k] + [d for c in children[k] for d in subtree(c)]

    weights = []
    for k in range(n - 1):
        members = subtree(k)
        phase = digits[:, members].sum(axis=1) % 4
        counts = np.bincount(phase[message(k) == 1], minlength=4)
        repeats = 4 ** (n - len(members))
        weights.append(complex(counts[0] - counts[2], counts[1] - counts[3]) / repeats)
    return weights


def sign_table(index: int, shape: tuple[int, int]) -> np.ndarray:
    """The +-1 table whose entry e, in C order, is -1 where bit e of index is set."""
    bits = (index >> np.arange(shape[0] * shape[1])) & 1
    return (1 - 2 * bits).reshape(shape)


def brute_force_by_combination_a(parents) -> tuple[float, list[np.ndarray], int]:
    """Reference general-protocol search: one ``bincount`` per table combination.

    Enumerates every combination of sender tables, party 0's index most
    significant, and keeps the first with the largest sum_s |v_s|.  The root
    table is the lowest mask (bit s set where r_s = -1) among all 2^(4*2^c)
    root tables scoring that maximum.  Returns (max fidelity, argmax tables,
    number of protocols covered).
    """
    n = len(parents) + 1
    digits = np.array(even_sum_tuples(n))
    shapes = [(4, 2 ** sum(1 for p in parents if p == k)) for k in range(n)]
    counts = [2 ** (r * c) for r, c in shapes]
    best_fid, best_tables = -1.0, None
    for combo in itertools.product(*(range(c) for c in counts[:-1])):
        tables = [sign_table(i, shape) for i, shape in zip(combo, shapes)]
        fid = float(np.abs(root_weights_a(tables, parents, digits)).sum())
        if fid > best_fid:
            best_fid, best_tables = fid, tables
    v = root_weights_a(best_tables, parents, digits)
    masks = (np.arange(counts[-1])[:, None] >> np.arange(v.size)[None, :]) & 1
    root = 1 - 2 * masks[np.argmax(np.abs((1 - 2 * masks) @ v))]
    return best_fid, [*best_tables, root.reshape(shapes[-1])], math.prod(counts)


def propose_b_uniform(n_parties: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """One task B rejection round as first written: ``uniform`` proposals,
    accepted by a boolean row index where ``random`` < |cos| of numpy's row sum."""
    proposals = rng.uniform(0.0, 2.0 * math.pi, size=(count, n_parties))
    accept = rng.random(count) < np.abs(np.cos(proposals.sum(axis=1)))
    return proposals[accept]


def sample_b_uniform(n_parties: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Rounds of :func:`propose_b_uniform` until ``size`` rows are accepted.

    A round proposes ``max(16, int(needed / (2/pi) * 1.1))`` rows; the
    accepted rows are concatenated and cut to ``size``.
    """
    chunks, got = [np.empty((0, n_parties))], 0
    while got < size:
        count = max(16, int((size - got) / (2.0 / math.pi) * 1.1))
        chunks.append(propose_b_uniform(n_parties, rng, count))
        got += len(chunks[-1])
    return np.concatenate(chunks)[:size]


def first_accepted_b(d: np.ndarray, starts, n_parties: int, proposals: int) -> list[int]:
    """Index of the first accepted proposal of each task B rejection round, -1 if none is.

    The round at word q of the doubles d lays out ``proposals`` rows of
    ``n_parties`` words, each scaled by 2 pi, then one acceptance uniform
    per row; a row is accepted where its uniform is below float64
    ``np.abs(np.cos)`` of numpy's row sum.
    """
    width = proposals * n_parties
    out = []
    for q in starts:
        phases = 2.0 * math.pi * d[q : q + width].reshape(proposals, n_parties)
        ok = d[q + width : q + width + proposals] < np.abs(np.cos(phases.sum(axis=1)))
        out.append(int(np.argmax(ok)) if ok.any() else -1)
    return out


def target_b(inputs: np.ndarray) -> np.ndarray:
    """Task B targets as first written: the sign of float64 ``np.cos`` of numpy's row sums.

    Raises ValueError where a |cos| is below 1e-12, where the sign is undefined.
    """
    c = np.cos(inputs.sum(axis=1))
    if (np.abs(c) < 1e-12).any():
        raise ValueError("cosine tie")
    return np.where(c > 0.0, 1, -1)


def answers_b(inputs: np.ndarray, visibility: float, rng: np.random.Generator) -> np.ndarray:
    """Quantum task B answers as first written: +1 where one ``rng.random`` per row
    is below (1 + V cos(row sum))/2, with float64 ``np.cos`` of numpy's row sums."""
    c = np.cos(inputs.sum(axis=1))
    return np.where(rng.random(len(inputs)) < (1.0 + visibility * c) / 2.0, 1, -1)


def product_answers(signs: np.ndarray, task_b: bool, inputs: np.ndarray) -> np.ndarray:
    """A product strategy's answer per row: prod_k a_k(x_k) * prod_k y_k.

    The whole (rows, N) input is split at once into reduced coordinates x
    and signs y, x is mapped to its cell (task B: floor(x M / pi), clipped
    to M-1), and both factors are reduced with ``np.prod`` along the rows.
    """
    if task_b:
        flip = inputs >= math.pi
        x, y = np.where(flip, inputs - math.pi, inputs), np.where(flip, -1, 1)
        cells = signs.shape[1]
        x = np.clip(np.floor(x * cells / math.pi).astype(np.int64), 0, cells - 1)
    else:
        x, y = inputs % 2, np.where(inputs < 2, 1, -1)
    local = signs[np.arange(signs.shape[0])[None, :], x]
    return np.prod(local, axis=1) * np.prod(y, axis=1)


def ascend_by_party_b(signs: np.ndarray, max_sweeps: int = 500):
    """Coordinate ascent on one (N, M) float +-1 table, one party at a time.

    Party k's cells are set to the sign of Re(I_c * prod_{j != k} z_j),
    keeping their sign where that is exactly zero, with z_j = a_j . I over
    the cell integrals I of e^{ix} on [0, pi).  A sweep updates every party
    in turn; the ascent stops after the first sweep that changes nothing.
    Returns the final table and the fidelity after each sweep, the start
    included.
    """
    n, cells = signs.shape
    edges = np.exp(1j * np.arange(cells + 1) * (math.pi / cells))
    cell_int = (edges[1:] - edges[:-1]) / 1j
    norm = 2.0 * math.pi ** (n - 1)
    signs = signs.copy()
    z = signs @ cell_int
    trace = [float(np.abs(np.prod(z).real) / norm)]
    for _ in range(max_sweeps):
        changed = False
        for k in range(n):
            coeff = (cell_int * np.prod(np.delete(z, k))).real
            new = np.where(coeff > 0.0, 1.0, np.where(coeff < 0.0, -1.0, signs[k]))
            if not np.array_equal(new, signs[k]):
                signs[k] = new
                z[k] = new @ cell_int
                changed = True
        trace.append(float(np.abs(np.prod(z).real) / norm))
        if not changed:
            break
    return signs, tuple(trace)


def optimize_by_restart_b(n_parties: int, cells: int, restarts: int, rng: np.random.Generator):
    """Restarted task B coordinate ascent, one restart after the other.

    Each restart draws its start as ``1 - 2 * rng.integers(0, 2, (N, M))``
    and ascends it with :func:`ascend_by_party_b`.  Returns the best final
    table as int64, its fidelity, its trace and every restart's final
    fidelity; ties keep the earliest restart.
    """
    runs = [
        ascend_by_party_b((1 - 2 * rng.integers(0, 2, size=(n_parties, cells))).astype(float))
        for _ in range(restarts)
    ]
    finals = tuple(trace[-1] for _, trace in runs)
    signs, trace = runs[finals.index(max(finals))]
    return signs.astype(np.int64), trace[-1], trace, finals


def records_tsv_by_row(path, chunks, seed: int) -> None:
    """A ``qccp-records-v1`` log written one row at a time, as first written.

    ``chunks`` are (stream_id, runs) pairs.  Each row is one ``str.format``
    of the window index, seed, stream id, the six per-window columns as
    Python ints (flags as 0/1) and the N inputs; ``"{}"`` formats a float
    as ``repr`` does.
    """
    n = chunks[0][1].inputs.shape[1]
    names = ["trigger_count", "accepted", "detected", "guessed", "answer", "truth"]
    header = ["window", "seed", "stream", *names] + [f"input_{k + 1}" for k in range(n)]
    first = 0
    with open(path, "w") as fh:
        fh.write("# schema: qccp-records-v1\n" + "\t".join(header) + "\n")
        for stream_id, runs in chunks:
            columns = [getattr(runs, name).astype(np.int64).tolist() for name in names]
            columns += [column.tolist() for column in runs.inputs.T]
            row = "\t".join(["{}", str(seed), str(stream_id)] + ["{}"] * len(columns)) + "\n"
            for i, values in enumerate(zip(*columns), first):
                fh.write(row.format(i, *values))
            first += len(runs)


def cells_by_repr(column) -> list[str]:
    """The text of each entry of a non-empty column: ``repr`` of a float, ``str`` of an int, text as is.

    An int or bool column has few distinct values, so each is formatted
    once: through a table over the column's range, or over its distinct
    values when that range is wider than the column.
    """
    column = np.asarray(column)
    if column.dtype.kind == "U":
        return column.tolist()
    if column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    column = column.astype(np.int64, copy=False)
    low, high = int(column.min()), int(column.max())
    if high - low < len(column):
        values, index = range(low, high + 1), column - low
    else:
        values, index = np.unique(column, return_inverse=True)
        values = values.tolist()
    return np.array([str(v) for v in values], dtype=object)[index].tolist()


def table_by_repr(columns: dict, schema: str | None = None) -> str:
    """A TSV of equal-length, non-empty columns, each row a ``"\\t".join`` of :func:`cells_by_repr`."""
    lines = [f"# schema: {schema}"] if schema else []
    lines.append("\t".join(columns))
    lines += map("\t".join, zip(*map(cells_by_repr, columns.values())))
    return "\n".join(lines) + "\n"
