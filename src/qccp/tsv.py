"""Tab-separated output: the cell kernels, the tables, both writers and the output opener.

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

import contextlib
import os
import stat
import sys
from pathlib import Path

import numpy as np

RECORDS_SCHEMA = "qccp-records-v1"
RECORDS_BLOCK_ROWS = 1024
# a window's columns after its index, seed and stream; its inputs follow, one column per party
RECORDS_COLUMNS = ("trigger_count", "accepted", "detected", "guessed", "answer", "truth")
HISTOGRAM_SCHEMA = "qccp-histogram-v1"


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
    each cell as one fixed-width item, and every NUL of it is dropped.
    """
    rows = len(blocks[0])
    out = np.empty((rows, sum((c.itemsize + 1) * (c.size // rows) for c in blocks)), np.uint8)
    start = 0
    for cells in blocks:
        width = cells.itemsize
        k = cells.size // rows
        fields = out[:, start : start + k * (width + 1)].reshape(rows, k, width + 1)
        fields[:, :, :width].view(f"V{width}")[..., 0] = cells.reshape(rows, k).view(f"V{width}")
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
    header = ["window", "seed", "stream", *RECORDS_COLUMNS] + [f"input_{k+1}" for k in range(n)]
    seed_cell = _cells(np.array([str(seed)]))
    first = 0
    with _open_out(path) as fh:
        fh.write(f"# schema: {RECORDS_SCHEMA}\n" + "\t".join(header) + "\n")
        for stream_id, runs in chunks:
            columns = [getattr(runs, name) for name in RECORDS_COLUMNS]
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
