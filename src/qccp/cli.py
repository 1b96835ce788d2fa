"""Command-line front end: bounds, certification, optimisation, simulation.

Commands are deterministic given (configuration, seed): rerunning one with
the same inputs produces byte-identical output files, so reports never embed
timestamps or durations.  The default seed comes from the QCCP_SEED
environment variable; a flat key=value config file may supply any flag, and
explicit flags win over the file.

Two serialisation formats exist: ``structured-record`` (JSON, for tests and
tooling) and ``delimited-table`` (TSV, for external plotting).  Record logs
and histograms are inherently tabular and always ship as TSV with a
``# schema:`` header line.

Every TSV cell follows one rule, kept in :func:`_cells` alone: ``repr`` of
a float, ``str`` of an int (a bool as 0/1), text as it is.  A key/value
report gives each value's ``repr`` as text.  ``_cells`` computes that text
a column at a time with numpy: :func:`_float_cells` finds each float's
``repr`` digits exactly and hands the rows near a rounding edge (and those
``repr`` writes in exponent form) to ``repr`` itself.  A different records
float format would change ``_cells`` and nothing else.  :func:`_rows` lays
cells out as TSV rows for :func:`_table`, which builds every table but the
records log, and for the streamed records log.  Every report goes to
stdout or through :func:`_write` to its file, and every output file, the
records log included, is opened by :func:`_open_out` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .classical import (
    BRUTE_FORCE_MAX_PARTIES,
    MIN_GRID_CELLS,
    CommTree,
    brute_force_bound_a,
    classical_bound,
    exhaust_product_strategies_a,
    optimize_strategy_b,
)
from .experiment import (
    PRESETS,
    ExperimentParams,
    Run,
    Runs,
    optimize_window,
    predicted_success,
    simulate_experiment,
    stream_runs,
    visibility_from_gamma,
)
from .quantum import final_state, measure_probabilities, quantum_fidelity, run_quantum_batch
from .sampling import RandomStream, enumerate_a, sample_b
from .stats import DEFAULT_BLOCK_SIZE, block_histogram, sigma_violation, success_stats
from .tasks import Task, task_value_batch

DEFAULT_SEED = 7
SEED_ENV_VAR = "QCCP_SEED"

RECORDS_SCHEMA = "qccp-records-v1"
RECORDS_BLOCK_ROWS = 1024
HISTOGRAM_SCHEMA = "qccp-histogram-v1"

FORMATS = ("structured-record", "delimited-table")


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- TSV cells --------------------------------------------------------------
#
# A cell array holds the ASCII (or UTF-8) text of each entry of a column as
# fixed-width bytes, padded with NULs anywhere in the cell: :func:`_rows`
# drops every NUL when it lays the cells out as rows.

SETTLE_MARGIN = 1e-9  # float rows this close to a rounding edge are settled by repr

_VELTKAMP = 2.0**27 + 1.0
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))  # 10^k, k <= 22, exact
_POW10_HI = _POW10 * _VELTKAMP - (_POW10 * _VELTKAMP - _POW10)  # the top 26 bits of 10^k
_POW10_LO = _POW10 - _POW10_HI
_POW10_UINT = np.uint64(10) ** np.arange(20, dtype=np.uint64)  # 10^k, k <= 19
_TEN4 = np.uint64(10**4)
# the four ASCII digits of each of 0..9999 as one uint32 (in memory order),
# then the same with trailing zeros as NULs
_QUAD_TEXT = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + np.uint8(48)
_QUAD_TEXT = np.concatenate(
    [_QUAD_TEXT, _QUAD_TEXT * np.logical_or.accumulate(_QUAD_TEXT[:, ::-1] != 48, axis=1)[:, ::-1]]
).view(np.uint32).ravel()
_EXPONENT = np.uint64(0x7FF << 52)
_E16, _E17 = 10**16, 10**17


def _digits(values: np.ndarray, width: int, trim: bool = False) -> np.ndarray:
    """ASCII digits of uint64 ``values`` below 10**width, zero-padded to ``width`` columns.

    With ``trim``, the zeros after each value's last nonzero digit are NULs.
    """
    groups = -(-width // 4)
    quads = np.empty((len(values), groups), np.uint32)
    trailing = np.full(len(values), trim)  # only zeros follow this group
    for g in reversed(range(groups)):
        rest = values // _TEN4
        quad = (values - rest * _TEN4).view(np.int64)
        if trim:
            quad = quad + 10000 * trailing  # the trimmed half of the table
            trailing &= quad == 10000
        quads[:, g] = _QUAD_TEXT[quad]
        values = rest
    return quads.view(np.uint8)[:, 4 * groups - width :]


def _drop_leading_zeros(digits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The zero-padded ``digits`` of uint64 ``values``, with each row's leading zeros as NULs."""
    width = digits.shape[1]
    for j in range(width - 1):  # the units column always stays
        digits[:, j] *= values >= _POW10_UINT[width - 1 - j]
    return digits


def _as_cells(chars: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous (size, width) uint8 array as cells of the given shape."""
    return chars.view(f"S{chars.shape[1]}").reshape(shape)


def _int_cells(column: np.ndarray) -> np.ndarray:
    """Decimal digits of each int (a bool as 0/1), with a ``-`` for negatives.

    A cell is as wide as the column's longest number: the leading zeros of
    shorter ones are NULs.
    """
    values = column.astype(np.int64, copy=False).ravel()
    magnitude = values.view(np.uint64)  # -2^63 too has its magnitude in uint64
    sign = int(values.min() < 0)
    if sign:
        magnitude = np.where(values < 0, -magnitude, magnitude)
    width = len(str(magnitude.max()))
    chars = np.empty((len(values), sign + width), np.uint8)
    chars[:, sign:] = _drop_leading_zeros(_digits(magnitude, width), magnitude)
    if sign:
        chars[:, 0] = np.where(values < 0, ord("-"), 0)
    return _as_cells(chars, column.shape)


def _scaled(size: np.ndarray, e10: np.ndarray):
    """``size · 10^(16 - e10)`` exactly, as an int64 nearest integer and its float64 remainder."""
    k = 16 - e10
    ten, ten_hi, ten_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    product = size * ten
    split = size * _VELTKAMP
    hi = split - (split - size)
    lo = size - hi
    error = ((hi * ten_hi - product) + hi * ten_lo + lo * ten_hi) + lo * ten_lo
    rounded = np.rint(error)
    return product.astype(np.int64) + rounded.astype(np.int64), error - rounded


def _float_cells(column: np.ndarray) -> np.ndarray:
    """``repr`` of each float64, computed in columns; rows near a rounding edge are settled by ``repr``.

    ``repr`` writes the shortest decimal that reads back as the same double
    (the nearest such one), positional for 1e-4 <= |x| < 1e16.  The fast
    rows are those, less the powers of two (whose lower neighbour is half as
    far as the upper one).  For a fast row with decimal exponent e10 =
    floor(log10 |x|), V = |x| · 10^(16 - e10) lies in [1e16, 1e17), and
    Dekker's TwoProduct (a Veltkamp split by 2^27 + 1; 10^k is exact for
    k <= 22) gives it exactly as D17 + e: D17 is an integer, |e| <= 1/2.
    Every decimal within H = spacing(|x|) · 10^(16 - e10) / 2 of V (scaled
    the same way) reads back as x, and none farther does; H is exact.

    D16 and D15 are D17 rounded to 16 and 15 digits by its last one or two
    digits and the sign of e.  H < V · 2^-53 < 12, so at most one 15-digit
    decimal lies within H; if it does, it is D15, and its trailing zeros
    stripped are the shortest.  Otherwise D16 if within H, else D17 (always
    within: |e| <= 1/2 < 1e16 · 2^-54).  The chosen digits C, less their
    trailing zeros, are laid out by e10.

    The test |C - D17 - e| - H < 0 is computed in float64.  C - D17 is an
    exact integer of at most 50 and H is exact, so each of the two roundings
    (subtracting e, then H) acts on a value below 64 and errs by at most
    2^-48: the computed miss is within 2^-47 < 1e-14 of the true one, far
    inside SETTLE_MARGIN.  A row whose miss lies within SETTLE_MARGIN of 0
    is settled by ``repr``, as is every other row where this reasoning does
    not hold: not fast, D17 not strictly inside (1e16, 1e17) (log10 may miss
    by one), a candidate carried to 1e17, or an exact 16-digit tie, where
    ``repr`` breaks the tie.
    """
    x = column.astype(np.float64, copy=False).ravel()
    size = np.abs(x)
    fast = (size >= 1e-4) & (size < 1e16) & (x.view(np.uint64) << np.uint64(12) != 0)
    size = np.where(fast, size, 1.5)
    e10 = np.floor(np.log10(size)).astype(np.int64)
    d17, e = _scaled(size, e10)
    shift = (d17 > _E17).astype(np.int64) - (d17 < _E16)
    if shift.any():
        e10 += shift
        d17, e = _scaled(size, e10)
    # half of spacing(size) is 2^(exponent - 53), built from its exponent bits
    half_ulp = ((size.view(np.uint64) & _EXPONENT) - np.uint64(53 << 52)).view(np.float64)
    half = half_ulp * _POW10[16 - e10]
    last2 = d17 - d17 // 100 * 100
    last = last2 - last2 // 10 * 10
    above = e > 0  # V above D17: its last digits plus a bit decide the rounding
    c16 = d17 - last + 10 * (last + above > 5)
    c15 = d17 - last2 + 100 * (last2 + above > 50)
    miss16 = np.abs((c16 - d17) - e) - half  # < 0: D16 reads back as x
    miss15 = np.abs((c15 - d17) - e) - half
    c = np.where(miss15 < 0, c15, np.where(miss16 < 0, c16, d17)).view(np.uint64)
    settle = ~fast | (d17 <= _E16) | (c >= _E17) | ((last == 5) & (e == 0))
    settle |= (np.abs(miss16) < SETTLE_MARGIN) | (np.abs(miss15) < SETTLE_MARGIN)

    # |x| = c / 10^(16 - e10): the first `point` digits of c are whole, and
    # the fraction is `zeros` zeros (-e10 - 1 of them for e10 < 0, or the one
    # of x.0) and 17 digits less their trailing zeros
    point = np.maximum(e10 + 1, 0)
    whole = c // _POW10_UINT[17 - point]
    fraction = (c - whole * _POW10_UINT[17 - point]) * _POW10_UINT[point]
    zeros = np.maximum(-e10 - 1, 0) + (fraction == 0)
    width_whole, width_zeros = len(str(whole.max())), int(zeros.max())
    settled = np.flatnonzero(settle)
    texts = [text.encode() for text in map(repr, x[settled].tolist())]
    negative = np.signbit(x)
    sign = int(negative.any())
    at = sign + width_whole  # the point's column
    width = at + 1 + width_zeros + 17
    chars = np.zeros((len(x), max([width, *map(len, texts)])), np.uint8)
    if sign:
        chars[:, 0] = np.where(negative, ord("-"), 0)
    chars[:, sign:at] = _drop_leading_zeros(_digits(whole, width_whole), whole)
    chars[:, at] = ord(".")
    for j in range(width_zeros):  # NULs, then the row's zeros
        chars[:, at + 1 + j] = (zeros >= width_zeros - j) * ord("0")
    chars[:, at + 1 + width_zeros : width] = _digits(fraction, 17, trim=True)
    cells = _as_cells(chars, x.shape)
    cells[settled] = texts
    return cells.reshape(column.shape)


def _cells(column) -> np.ndarray:
    """The cells of a non-empty column or block: ``repr`` of a float, an int in decimal, text as is.

    Returns fixed-width NUL-padded bytes of the column's shape (see
    :func:`_rows`); text is UTF-8 and must hold no NUL.
    """
    column = np.asarray(column)
    if column.dtype.kind == "U":
        return np.array([text.encode() for text in column.ravel().tolist()]).reshape(column.shape)
    if column.dtype.kind == "f":
        return _float_cells(column)
    return _int_cells(column)


def _rows(blocks: list[np.ndarray]) -> str:
    """The TSV rows of equal-length cell arrays side by side; a (rows, k) block gives k fields.

    The cells are copied into one byte matrix with their tabs and newlines,
    and every NUL of it is dropped.
    """
    rows = len(blocks[0])
    out = np.empty((rows, sum((c.itemsize + 1) * (c.size // rows) for c in blocks)), np.uint8)
    start = 0
    for cells in blocks:
        chars = cells.reshape(rows, -1).view(np.uint8).reshape(rows, -1, cells.itemsize)
        k, width = chars.shape[1:]
        fields = out[:, start : start + k * (width + 1)].reshape(rows, k, width + 1)
        fields[:, :, :width] = chars
        fields[:, :, width] = ord("\t")
        start += k * (width + 1)
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode()


def _table(columns: dict, schema: str | None = None) -> str:
    """A TSV of equal-length, non-empty columns: a ``# schema:`` line if given, the names, the rows."""
    head = f"# schema: {schema}\n" if schema else ""
    return head + "\t".join(columns) + "\n" + _rows([_cells(c) for c in columns.values()])


def _key_values(payload: dict) -> dict:
    """The key/value table of a report: its keys in order, each value's ``repr``."""
    keys = sorted(payload)
    return {"key": keys, "value": [repr(payload[k]) for k in keys]}


@contextlib.contextmanager
def _open_out(path):
    """The text file every output is written through, rewritten in place.

    The file is opened without truncation (a new one gets mode 0o666 less
    the umask, as ``open(path, "w")`` gives) and, on exit by return or by
    exception, flushed and, when it is a regular file longer than what was
    written, cut there: truncating a non-empty file to zero and filling it
    again costs several times what overwriting it does (a rerun into an
    existing file gains; a new path gains nothing).  A non-regular
    target (``/dev/null``, a pipe, a tty) is written as a stream and never
    cut.  An ``OSError`` that names no file is given ``path``, whether the
    opener raised it or the code in the ``with`` block did: writes through
    the file raise there, so a caller doing other I/O inside the block
    must handle that I/O's errors itself.

    The trade-off is crash consistency.  Nothing is synced, and the new
    text lands on the old file's pages.  A process killed mid-write can
    leave the new prefix followed by the old tail; after a power loss or an
    OS crash, a rewritten file can hold old and new pages mixed anywhere
    and have either length.  Truncating first could, under ext4's default
    journaling, leave the old file, an empty one or a prefix of the new
    text, but not a mix of two runs.  A failure inside the process still
    leaves only the new prefix, because the cut runs on exceptions.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as fh:
            try:
                yield fh
            finally:
                try:
                    fh.flush()
                finally:
                    file = os.fstat(fd)
                    if stat.S_ISREG(file.st_mode):
                        end = os.lseek(fd, 0, os.SEEK_CUR)
                        if file.st_size > end:
                            os.ftruncate(fd, end)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise


def _write(text: str, out) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is empty."""
    if out:
        with _open_out(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, fmt: str, out: str | None, table: dict | None = None) -> None:
    """Write a report as JSON, or as the TSV of ``table``, by default the payload's keys and values."""
    if fmt == "structured-record":
        _write(_json_dumps(payload), out)
    else:
        _write(_table(table or _key_values(payload)), out)


class _UsageError(Exception):
    """A parse error held back so that its message can name the value's source."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _parse(parser: argparse.ArgumentParser, argv: list[str], source: str = ""):
    """parse_args, exiting 2 on a usage error with ``source`` before the message."""
    try:
        return parser.parse_args(argv)
    except _UsageError as exc:
        argparse.ArgumentParser.error(exc.parser, source + str(exc))


def _config_flags(
    parser: argparse.ArgumentParser, command: str, path: str, known: set[str]
) -> list[str]:
    """A flat key=value file as ``--key=value`` flags; rejects unknown keys.

    Each flag is checked on its own first, so a bad value is reported with
    its file, line and key.  The flags are then parsed ahead of the command
    line's own, so config values pass the same types and choices and
    explicit flags win.
    """
    def fail(where: str, message: str):
        argparse.ArgumentParser.error(parser, f"config {where}: {message}")

    try:
        text = Path(path).read_text()
    except OSError as exc:
        fail(path, f"cannot read: {exc.strerror}")
    flags: list[str] = []
    unknown: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            fail(f"{path}:{lineno}", f"expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            unknown.add(key)
            continue
        flag = f"--{key.replace('_', '-')}={value.strip()}"
        _parse(parser, [command, flag], f"config {path}:{lineno} ({line}): ")
        flags.append(flag)
    if unknown:
        fail(path, f"unknown config keys: {sorted(unknown)}")
    return flags


def _int_from(minimum: int, what: str, name: str):
    """An argparse type for integers >= minimum, named ``name`` in argparse's message for non-integers."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = name
    return parse


positive_int = _int_from(1, "a positive integer", "positive_int")
non_negative_int = _int_from(0, "a non-negative integer", "non_negative_int")
grid_cells = _int_from(MIN_GRID_CELLS, f"at least {MIN_GRID_CELLS}", "grid_cells")


def positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _seed_of(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return DEFAULT_SEED
    try:
        return non_negative_int(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"{SEED_ENV_VAR}={env!r} is not a non-negative integer") from None


# --- bounds -----------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    tasks = [Task(args.task)] if args.task else [Task.A, Task.B]
    rows = []
    for task in tasks:
        for n in range(1, args.parties + 1):
            fid, success = classical_bound(task, n)
            qfid = quantum_fidelity(task, n)
            rows.append(
                {
                    "task": task.value,
                    "n_parties": n,
                    "classical_fidelity": fid,
                    "classical_success": success,
                    "quantum_fidelity": qfid,
                    "quantum_success": (1.0 + qfid) / 2.0,
                }
            )
    columns = {c: [row[c] for row in rows] for c in rows[0]}
    _emit({"schema": "qccp-bounds-v1", "rows": rows}, args.format, args.out, columns)
    return 0


# --- certify ----------------------------------------------------------------


def cmd_certify(args: argparse.Namespace) -> int:
    tree = getattr(CommTree, args.tree)(args.parties)
    result = brute_force_bound_a(tree)
    closed = classical_bound(Task.A, args.parties).fidelity
    payload = {
        "schema": "qccp-certify-v1",
        "task": "A",
        "n_parties": args.parties,
        "tree": args.tree,
        "max_fidelity": result.max_fidelity,
        "closed_form": closed,
        "matches_closed_form": result.max_fidelity == closed,
        "search_space": result.search_space,
        "argmax_tables": [t.tolist() for t in result.protocol.tables],
    }
    _emit(payload, args.format, args.out)
    return 0 if payload["matches_closed_form"] else 1


# --- optimize ---------------------------------------------------------------


def cmd_optimize(args: argparse.Namespace) -> int:
    seed = _seed_of(args)
    rng = RandomStream(seed, 0).generator()
    result = optimize_strategy_b(args.parties, args.grid, args.restarts, rng)
    target = classical_bound(Task.B, args.parties).fidelity
    payload = {
        "schema": "qccp-optimize-v1",
        "task": "B",
        "n_parties": args.parties,
        "grid_cells": args.grid,
        "restarts": args.restarts,
        "seed": seed,
        "best_fidelity": result.fidelity,
        "target_fidelity": target,
        "ratio": result.fidelity / target,
        "trace": list(result.trace),
        "restart_fidelities": list(result.restart_fidelities),
        "best_strategy": result.strategy.signs.tolist(),
    }
    if args.trace_out:  # first, so that a trace path that cannot be written emits no report
        trace = {"sweep": range(len(result.trace)), "fidelity": result.trace}
        _write(_table(trace, "qccp-trace-v1"), args.trace_out)
    _emit(payload, args.format, args.out)
    return 0


# --- experiment -------------------------------------------------------------


def _experiment_params(args: argparse.Namespace) -> ExperimentParams:
    if args.task is None:
        raise ValueError("--task is required (A or B), as a flag or in --config")
    task = Task(args.task)
    given = {
        "n_parties": args.parties, "trigger_rate": args.trigger_rate, "window": args.window,
        "eta": args.eta, "visibility": args.visibility, "n_target": args.n_target,
    }
    if args.trigger_rate is not None and args.window is None:
        given["window"] = optimize_window(args.trigger_rate).window
    if args.gamma is not None:
        given["visibility"] = visibility_from_gamma(task, args.gamma)
    return replace(PRESETS[task.value], **{k: v for k, v in given.items() if v is not None})


def write_records_tsv(path: Path, chunks, seed: int) -> None:
    """One row per window; chunks are (stream_id, runs) pairs in order.

    Rows are written RECORDS_BLOCK_ROWS at a time, so the log is never held
    in memory as one string.  A block's window index is one int column, its
    stream and per-window columns one (rows, 7) int block, its inputs a
    (rows, N) block; each becomes one cell array (see :func:`_cells`), and
    :func:`_rows` lays them out as the block's rows.  The seed may be any
    non-negative int, wider than int64, so its one cell is made once from
    its decimal text.  Blocks of 1024 rows keep a block's temporaries near a
    megabyte; blocks of 2048 to 8192 rows wrote a preset-B log at most 10 %
    faster.
    """
    n = chunks[0][1].inputs.shape[1]
    names = Run._fields[1:]  # the inputs come last, one column per party
    header = ["window", "seed", "stream", *names] + [f"input_{k+1}" for k in range(n)]
    seed_cell = _cells(np.array([str(seed)]))
    first = 0
    with _open_out(path) as fh:
        fh.write(f"# schema: {RECORDS_SCHEMA}\n" + "\t".join(header) + "\n")
        for stream_id, runs in chunks:
            columns = [getattr(runs, name) for name in names]
            for start in range(0, len(runs), RECORDS_BLOCK_ROWS):
                inputs = runs.inputs[start : start + RECORDS_BLOCK_ROWS]
                window = np.arange(first + start, first + start + len(inputs))
                ints = np.column_stack(
                    [np.full(len(inputs), stream_id)]
                    + [c[start : start + RECORDS_BLOCK_ROWS] for c in columns]
                )
                seeds = np.repeat(seed_cell, len(inputs))
                fh.write(_rows([_cells(window), seeds, _cells(ints), _cells(inputs)]))
            first += len(runs)


def write_histogram_tsv(path: Path, histogram) -> None:
    edges = histogram.bin_edges
    columns = {"bin_left": edges[:-1], "bin_right": edges[1:], "count": histogram.counts}
    _write(_table(columns, HISTOGRAM_SCHEMA), path)


def cmd_experiment(args: argparse.Namespace) -> int:
    params = _experiment_params(args)
    seed = _seed_of(args)
    chunks = stream_runs(params, seed, args.streams)
    runs = Runs.concat([r for _, r in chunks])
    stats = success_stats(runs)
    bound = classical_bound(params.task, params.n_parties)
    payload = {
        "schema": "qccp-experiment-v1",
        **asdict(params),
        "task": params.task.value,
        "gamma": params.gamma,
        "seed": seed,
        "streams": args.streams,
        "n_windows": len(runs),
        "n_accepted": stats.n,
        "successes": stats.successes,
        "p_hat": stats.p_hat,
        "sigma": stats.sigma,
        "classical_success": bound.success,
        # the ideal device has sigma 0; JSON has no infinity
        "sigma_violation": sigma_violation(stats, bound.success) if stats.sigma > 0 else None,
        "predicted_success": predicted_success(params.eta, params.gamma),
    }
    _emit(payload, args.format, args.out)
    if args.out:
        base = Path(args.out)
        write_records_tsv(base.with_suffix(base.suffix + ".records.tsv"), chunks, seed)
        if stats.n >= args.block_size:
            hist = block_histogram(runs, block_size=args.block_size)
            write_histogram_tsv(base.with_suffix(base.suffix + ".histogram.tsv"), hist)
    return 0


# --- reproduce --------------------------------------------------------------


@dataclass
class Check:
    name: str
    observed: float
    expected: float
    tolerance: str
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: observed={self.observed!r} "
            f"expected={self.expected!r} ({self.tolerance})"
        )


def _reproduction_checks(seed: int) -> list[Check]:
    checks: list[Check] = []

    def add(name, observed, expected, tolerance, passed=None):
        """Record a check; an ``exact`` or ``abs <bound>`` tolerance gives its own verdict."""
        observed, expected = float(observed), float(expected)
        if passed is None:
            kind, _, bound = tolerance.partition(" ")
            error = abs(observed - expected)
            passed = observed == expected if kind == "exact" else error < float(bound)
        checks.append(Check(name, observed, expected, tolerance, bool(passed)))

    # closed-form bounds
    add("closed-form-success-A-N5", classical_bound(Task.A, 5).success, 0.625, "abs 1e-4")
    pb_ref = (1.0 + (2.0 / math.pi) ** 4) / 2.0
    add("closed-form-success-B-N5", classical_bound(Task.B, 5).success, pb_ref, "abs 1e-4")
    add("quantum-fidelity-A", quantum_fidelity(Task.A, 5), 1.0, "exact")
    add("quantum-fidelity-B", quantum_fidelity(Task.B, 5), math.pi / 4, "abs 1e-12")

    # certified brute-force reduction
    for n, shape in ((2, "chain"), (3, "chain"), (3, "star")):
        got = brute_force_bound_a(getattr(CommTree, shape)(n)).max_fidelity
        add(f"certified-max-A-N{n}-{shape}", got, classical_bound(Task.A, n).fidelity, "exact")

    # product-strategy exhaustion at N=5
    fids, best = exhaust_product_strategies_a(5)
    add("product-exhaustion-max-A-N5", fids[best], 0.25, "exact")
    no_excess = (fids <= 0.25).all()
    add("product-exhaustion-no-excess-A-N5", fids.max(), 0.25, "never exceeded", no_excess)

    # coordinate ascent for task B
    rng = RandomStream(seed, 4).generator()
    for n in (2, 3, 4, 5):
        result = optimize_strategy_b(n, 64, 20, rng)
        target = classical_bound(Task.B, n).fidelity
        ok = result.fidelity >= 0.985 * target and all(
            b >= a - 1e-12 for a, b in zip(result.trace, result.trace[1:])
        )
        add(f"ascent-B-N{n}", result.fidelity, target, "within 1.5%, monotone", ok)

    # task A quantum pipeline measures the target with certainty on every promised tuple
    wrong = 0
    for n in range(1, 7):
        tuples, _ = enumerate_a(n)
        one_hot = (1 + task_value_batch(Task.A, tuples)[:, None] * [1, -1]) / 2  # P(+), P(-)
        probs = measure_probabilities(final_state(Task.A, tuples))
        wrong += np.count_nonzero((probs != one_hot).any(axis=1))
    add("quantum-exact-A-N1..6", wrong, 0.0, "zero errors", wrong == 0)

    # task B quantum Monte Carlo
    rng = RandomStream(seed, 1).generator()
    inputs = sample_b(5, rng, size=1_000_000)
    answers = run_quantum_batch(Task.B, inputs, 1.0, rng)
    p_hat = float(np.mean(answers == task_value_batch(Task.B, inputs)))
    p_q = (1.0 + math.pi / 4.0) / 2.0
    sigma = math.sqrt(p_q * (1.0 - p_q) / 1_000_000)
    add("quantum-mc-B-N5", p_hat, p_q, "within 3 sigma", abs(p_hat - p_q) < 3 * sigma)

    # experiment reproductions
    for label, stream, p_ref, sigma_ref, viol_lo, viol_hi in (
        ("A", 2, 0.711, 0.0055, 14.0, 21.0),
        ("B", 3, 0.669, 0.0035, 25.0, 33.0),
    ):
        params = PRESETS[label]
        runs = simulate_experiment(params, RandomStream(seed, stream).generator())
        stats = success_stats(runs)
        bound = classical_bound(params.task, params.n_parties)
        viol = sigma_violation(stats, bound.success)
        p_ok = abs(stats.p_hat - p_ref) < 3 * sigma_ref
        sigma_ok = abs(stats.sigma - sigma_ref) < 0.1 * sigma_ref
        viol_ok = p_ok and sigma_ok and viol_lo <= viol <= viol_hi
        add(f"experiment-{label}-p-hat", stats.p_hat, p_ref, "within 3 sigma", p_ok)
        add(f"experiment-{label}-sigma", stats.sigma, sigma_ref, "within 10%", sigma_ok)
        add(f"experiment-{label}-violation", viol, (viol_lo + viol_hi) / 2, f"in [{viol_lo}, {viol_hi}]", viol_ok)

    # window optimisation
    choice = optimize_window(5000.0)
    add("window-optimum", choice.window, 200e-6, "exact")
    add("window-accept-prob", choice.accept_prob, math.exp(-1.0), "abs 1e-12")
    return checks


def cmd_reproduce(args: argparse.Namespace) -> int:
    seed = _seed_of(args)
    checks = _reproduction_checks(seed)
    all_passed = all(c.passed for c in checks)
    lines = [c.line() for c in checks]
    lines.append(f"{'PASS' if all_passed else 'FAIL'} total: {sum(c.passed for c in checks)}/{len(checks)} checks")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        payload = {
            "schema": "qccp-reproduce-v1",
            "seed": seed,
            "all_passed": all_passed,
            "checks": [asdict(c) for c in checks],
        }
        verdicts = _key_values({c.name: "PASS" if c.passed else "FAIL" for c in checks})
        _emit(payload, args.format, args.out, verdicts)
    return 0 if all_passed else 1


# --- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged, and it holds no command function:
    :func:`main` looks ``cmd_<command>`` up when it runs one.
    """
    parser = _Parser(
        prog="qccp",
        description="Bounded-communication multiparty games: bounds, searches, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--format", choices=FORMATS, default=FORMATS[0])
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("bounds", help="closed-form classical and quantum values")
    p.add_argument("--task", choices=("A", "B"), default=None)
    p.add_argument("--parties", type=positive_int, default=5)
    common(p)

    p = sub.add_parser("certify", help="brute-force the task A bound over all protocols")
    p.add_argument(
        "--parties", type=int, choices=range(2, BRUTE_FORCE_MAX_PARTIES + 1), default=3
    )
    p.add_argument("--tree", choices=("chain", "star"), default="chain")
    common(p)

    p = sub.add_parser("optimize", help="coordinate-ascent search for task B strategies")
    p.add_argument("--parties", type=positive_int, default=5)
    p.add_argument("--grid", type=grid_cells, default=64, help="cells per party on [0, pi)")
    p.add_argument("--restarts", type=positive_int, default=20)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--trace-out", dest="trace_out", default=None)
    common(p)

    p = sub.add_parser("experiment", help="simulate the heralded-photon experiment")
    p.add_argument("--task", choices=("A", "B"), default=None)
    p.add_argument("--parties", type=positive_int, default=None)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--streams", type=positive_int, default=1)
    p.add_argument("--n-target", dest="n_target", type=positive_int, default=None)
    p.add_argument("--eta", type=float, default=None)
    contrast = p.add_mutually_exclusive_group()
    contrast.add_argument("--gamma", type=float, default=None)
    contrast.add_argument("--visibility", type=float, default=None)
    p.add_argument("--trigger-rate", dest="trigger_rate", type=positive_float, default=None)
    p.add_argument("--window", type=positive_float, default=None)
    p.add_argument("--block-size", dest="block_size", type=positive_int, default=DEFAULT_BLOCK_SIZE)
    common(p)

    p = sub.add_parser("reproduce", help="run every headline check and report pass/fail")
    p.add_argument("--seed", type=non_negative_int, default=None)
    common(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = _parse(parser, argv)
    if args.config:
        known = set(vars(args)) - {"command", "config"}
        flags = _config_flags(parser, argv[0], args.config, known)
        args = _parse(parser, argv[:1] + flags + argv[1:], f"config {args.config} with the flags: ")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the commands read nothing once parsed, so this is an output file
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
