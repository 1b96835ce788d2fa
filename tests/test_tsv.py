"""The TSV layer (``qccp.tsv``): cell kernels against ``repr`` and the records writer.

The cells of every float column must read as Python's ``repr``, of every
int column as its decimal; the column-wise records writer must give the
bytes of the row-by-row writer in ``oracles``, and the golden digests pin
whole experiment outputs.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qccp import Runs, tsv
from support import run_cli


def hand_built_runs(rows: int, n: int, floats: bool, rng, wide: bool = False) -> Runs:
    """A window log with every column's edge values, not drawn by the engine."""
    edges = [0.0, 5e-324, 1e-05, 1e-04, np.nextafter(2 * math.pi, 0.0)]
    if floats:
        inputs = rng.uniform(0.0, 2 * math.pi, (rows, n))
        inputs.flat[: min(len(edges), rows * n)] = edges[: rows * n]
    else:
        inputs = rng.integers(0, 4, (rows, n))
    counts = rng.integers(0, 4, rows)
    if wide:  # a range wider than the block
        counts[::2] = rng.integers(0, 10**12, len(counts[::2]))
    detected = (counts == 1) & (rng.random(rows) < 0.5)
    signs = 1 - 2 * rng.integers(0, 2, (2, rows))
    return Runs(inputs, counts, detected, signs[0], signs[1])


class TestRecordsWriter:
    # sha256 of (report, records TSV, histogram TSV) of `experiment --seed 11
    # --out`, recorded with the row-by-row writer (tests/oracles.py) and the
    # 1 << 13-word engine chunks: the preset sizes over one and three streams,
    # and a window of mean 12 triggers (numpy's PTRS sampler, counts to 28)
    CASES = {
        "streams-1": ("--streams", "1"),
        "streams-3": ("--streams", "3"),
        "mu-12": ("--window", "0.0024", "--n-target", "1", "--block-size", "1"),
    }
    GOLDEN_SHA256 = {
        ("A", "streams-1"): (
            "9beaf7bcbc081c3b46afd762115e7ef101c4110314087a8d0816df6e7dcec7a2",
            "de8c89277081ce29b8dd026dbd9f905aaadb595e9e2455ab6c347e63deb94b09",
            "a194330ece3b1851a04ad830722b01da400392529cdbcaa96f01ae083e4cb94f",
        ),
        ("A", "streams-3"): (
            "3eca5c1910efb29c82f7b1ea770c10382964b5b8a6adc099b6e9043796ad3cf2",
            "d0fcafc817564d9d73244782ded5c1da0356f589eb078be5d41121d7473ac98e",
            "c915da9bd141ec8365c0d81e2ddfe0ce00af6e15bb6f5bd48861d7e9d66087ce",
        ),
        ("B", "streams-1"): (
            "47cf982a3e0f7e6e3efab34a0b34cb94642e41e65896eb928edf7d028ac36a0c",
            "07f06f02eea0233d0b68501d97a181f1dd1f6bead3c9d1971b8cfefd3b378066",
            "cf054983b370373fb9f1d99a4f976814347548bf5a8311ee897ad0ae4865c594",
        ),
        ("B", "streams-3"): (
            "3b34f8b78812f163462a0260591887382d52d0f39e161c2b28013e6a934bfb07",
            "539c8b5b8e3169894e4a10ec2ffb7f23ea1e0ddc3ea49b6f4047feb9f1c67752",
            "c98cf9a055a30166ea0929bc5e3f00f2c3e8f6cc60610ab50d95747393535692",
        ),
        ("A", "mu-12"): (
            "d6682152bef5b0e66f36eae947d499ce9d0b5a3a21acf51f475b8064e4ec5db5",
            "ce381bee9459316fadabcec61a544d152d6336ec45ccb97b09f535d350a5064a",
            "8bf4f6abba7d6c245fb589266d392607b5fa805b919decc3986bd6bd70f0b773",
        ),
        ("B", "mu-12"): (
            "5dc07915dc9c519da92d35bd5c1b46c50089a586b6a914f82d4f7f4be34a525b",
            "f78b87f86274a2cc43be99069ea44999f24a32b3a504ff30cfd94f8d242b75bb",
            "fae0a899fdf0e41a36a336d6af0223bea2deefbb793b23b01f9a72305839b74b",
        ),
    }

    @pytest.mark.parametrize("task, case", sorted(GOLDEN_SHA256))
    def test_golden_digests(self, capsys, tmp_path, task, case):
        out = tmp_path / "run.json"
        argv = ["experiment", "--task", task, "--seed", "11", *self.CASES[case], "--out", str(out)]
        assert run_cli(capsys, *argv)[0] == 0
        files = [out, tmp_path / "run.json.records.tsv", tmp_path / "run.json.histogram.tsv"]
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
        assert digests == self.GOLDEN_SHA256[task, case]

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("floats", [False, True])
    @pytest.mark.parametrize("seed", [0, 2**40])
    def test_bytes_equal_the_row_writer(self, tmp_path, n, floats, seed):
        rng = np.random.default_rng([n, floats, seed])
        block = tsv.RECORDS_BLOCK_ROWS
        chunks = [
            (0, hand_built_runs(block + 5, n, floats, rng)),  # past one block
            (1, hand_built_runs(3, n, floats, rng)),  # short of one block
            (2, hand_built_runs(0, n, floats, rng)),  # no windows
            (3, hand_built_runs(7, n, floats, rng, wide=True)),
        ]
        tsv.write_records_tsv(tmp_path / "columns.tsv", chunks, seed)
        oracles.records_tsv_by_row(tmp_path / "rows.tsv", chunks, seed)
        assert (tmp_path / "columns.tsv").read_bytes() == (tmp_path / "rows.tsv").read_bytes()

    @pytest.mark.parametrize("seed", [2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**30])
    def test_seeds_wider_than_int64_are_written_exactly(self, tmp_path, seed):
        rng = np.random.default_rng(3)
        chunks = [(0, hand_built_runs(6, 3, True, rng)), (1, hand_built_runs(4, 3, False, rng))]
        tsv.write_records_tsv(tmp_path / "columns.tsv", chunks, seed)
        oracles.records_tsv_by_row(tmp_path / "rows.tsv", chunks, seed)
        assert (tmp_path / "columns.tsv").read_bytes() == (tmp_path / "rows.tsv").read_bytes()

    def test_a_wide_seed_from_the_command_line(self, capsys, tmp_path):
        out, seed = tmp_path / "run.json", 2**64 + 5
        argv = ["experiment", "--task", "A", "--n-target", "30", "--seed", str(seed), "--out", str(out)]
        assert run_cli(capsys, *argv)[0] == 0
        rows = (tmp_path / "run.json.records.tsv").read_text().splitlines()[2:]
        assert rows and [row.split("\t")[:3] for row in rows] == [
            [str(i), str(seed), "0"] for i in range(len(rows))
        ]

    def test_zero_windows_write_the_header_only(self, tmp_path):
        chunks = [(0, hand_built_runs(0, 5, True, np.random.default_rng(0)))]
        tsv.write_records_tsv(tmp_path / "columns.tsv", chunks, 7)
        oracles.records_tsv_by_row(tmp_path / "rows.tsv", chunks, 7)
        text = (tmp_path / "columns.tsv").read_text()
        assert text == (tmp_path / "rows.tsv").read_text()
        assert len(text.splitlines()) == 2


def edge_doubles(rng) -> np.ndarray:
    """About 1.1e6 doubles, both signs, around every edge of ``repr``'s shortest decimal.

    Every binade from 1e-5 to 1e17, the powers of two and their neighbours,
    the 40 doubles on each side of each power of ten from 1e-6 to 1e18 (1e-4
    and 1e16 among them), integers near 2^53, short decimals, exact 16-digit ties (j + 1/4
    and j + 3/4 in [2^49, 1e15), where ``repr`` rounds half to even),
    subnormals, random bit patterns, +-0, +-inf and nan.
    """
    binades = np.arange(math.floor(math.log2(1e-5)), math.ceil(math.log2(1e17)))
    tens = np.array([float(f"1e{k}") for k in range(-6, 19)])
    short = 10.0 ** rng.uniform(-4, 16, 50_000)
    digits = 10.0 ** rng.integers(0, 17, len(short))
    ties = rng.integers(2**49, 10**15, 20_000).astype(np.float64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    parts = [
        np.ldexp(1.0 + rng.random((len(binades), 5000)), binades[:, None]).ravel(),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        (tens.view(np.int64)[:, None] + np.arange(-40, 41)).ravel().view(np.float64),
        2.0**53 + np.arange(-20_000, 20_000, dtype=np.float64),
        np.rint(short * digits) / digits,
        ties + 0.25, ties + 0.75,
        rng.integers(1, 2**52, 5_000).view(np.float64),
        rng.integers(0, 2**63, 20_000).view(np.float64),
        np.array([0.0, math.inf, math.nan]),
    ]
    values = np.concatenate(parts)
    return np.concatenate([values, -values])


def assert_reprs(values: np.ndarray, chunk: int = 1 << 16) -> None:
    """The float cells of ``values`` are their ``repr``s, checked a chunk at a time."""
    for start in range(0, len(values), chunk):
        part = values[start : start + chunk]
        got = tsv._rows([tsv._cells(part)])
        want = "".join(f"{v!r}\n" for v in part.tolist())
        if got != want:
            bad = next(i for i, (g, w) in enumerate(zip(got.split(), want.split())) if g != w)
            raise AssertionError(f"{part[bad]!r}: cell {got.split()[bad]!r}, repr {want.split()[bad]!r}")


class TestCells:
    def test_float_cells_are_reprs(self):
        values = edge_doubles(np.random.default_rng(20))
        assert len(values) > 10**6
        assert_reprs(values)

    def test_ties_are_settled_half_to_even(self):
        # |x| * 10 ends in 5 exactly and both 16-digit neighbours read back as x
        values = np.array([562949953421312.25, 562949953421312.75, 999999999999999.75])
        assert tsv._rows([tsv._cells(values)]) == "".join(f"{v!r}\n" for v in values.tolist())
        assert [repr(v)[-1] for v in values.tolist()] == ["2", "8", "8"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_are_reprs(self, values):
        assert tsv._table({"x": np.array(values)}) == oracles.table_by_repr({"x": values})

    def test_raising_the_margin_settles_every_row_by_repr(self, monkeypatch):
        values = edge_doubles(np.random.default_rng(21))[::50]
        want = tsv._rows([tsv._cells(values)])
        settled = []
        monkeypatch.setattr(tsv, "repr", lambda v: settled.append(v) or repr(v), raising=False)
        monkeypatch.setattr(tsv, "SETTLE_MARGIN", math.inf)
        same = tsv._rows([tsv._cells(values)]) == want  # not compared by pytest: a long diff
        assert same and len(settled) == len(values)

    def test_task_b_phases_rarely_need_repr(self, monkeypatch):
        values = np.random.default_rng(22).uniform(0.0, 2 * math.pi, 100_000)
        settled = []
        monkeypatch.setattr(tsv, "repr", lambda v: settled.append(v) or repr(v), raising=False)
        assert_reprs(values)
        assert len(settled) < 50  # below 1e-4 and the rare edge rows

    def test_int_cells(self):
        rng = np.random.default_rng(23)
        wide = rng.integers(-(2**63), 2**63 - 1, 5000, dtype=np.int64) >> rng.integers(0, 63, 5000)
        columns = {
            "extremes": np.array([-(2**63), 2**63 - 1, 0, -1, 1, 10**18, -(10**18), 9999]),
            "negative": np.array([-5, -10, -100, -9999, -10000, -7, -1, -123456789]),
            "flags": np.array([True, False, True, True, False, False, True, False]),
            "small": np.arange(8),
        }
        assert tsv._table(columns) == oracles.table_by_repr(columns)
        assert tsv._table({"wide": wide}) == oracles.table_by_repr({"wide": wide})

    def test_text_cells(self):
        columns = {"key": ["", "naïve", "π/4", "日本語", "a b"], "value": ["x", "", "", "é", "0"]}
        assert tsv._table(columns, "qccp-text") == oracles.table_by_repr(columns, "qccp-text")

    @pytest.mark.parametrize(
        "columns",
        [
            {"x": [0.5], "n": [3], "t": ["one"], "b": [False]},
            {"x": [0.1, -2.0, 3e-5, 1e300]},
            {"n": range(3)},
            {"t": ["only"]},
        ],
        ids=["one-row", "one-float-column", "one-int-column", "one-cell"],
    )
    def test_small_tables(self, columns):
        assert tsv._table(columns) == oracles.table_by_repr(columns)

    def test_key_value_reports(self):
        payload = {
            "schema": "qccp-experiment-v1", "task": "B", "eta": 0.8, "n_parties": 5,
            "sigma_violation": None, "matches_closed_form": True, "p_hat": 0.6690196078431373,
            "argmax_tables": [[1, -1], [-1, 1]], "ratio": 1e-05, "window": 0.0002,
        }
        table = tsv._key_values(payload)
        assert tsv._table(table) == oracles.table_by_repr(table)

    def test_blocks_give_one_field_per_column(self):
        blocks = [tsv._cells(np.array([[1, -2], [30, 4]])), tsv._cells(np.array([[0.5], [1e16]]))]
        assert tsv._rows(blocks) == "1\t-2\t0.5\n30\t4\t1e+16\n"
