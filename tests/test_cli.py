import dataclasses
import errno
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccp import (
    PRESETS, CommTree, Runs, Task, WindowChoice, classical_bound, cli, optimize_window, quantum,
    success_stats, tsv, visibility_from_gamma,
)
from qccp.cli import main
from oracles import even_sum_tuples, run_tables, task_value_a
from support import run_cli


def parse_records_tsv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: qccp-records-v1"
    header = lines[1].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[2:]]
    inputs = [
        [float(row[c]) if "." in row[c] or "e" in row[c] else int(row[c])
         for c in header if c.startswith("input_")]
        for row in rows
    ]
    stored = ("trigger_count", "detected", "answer", "truth")
    runs = Runs(inputs=inputs, **{c: [int(row[c]) for row in rows] for c in stored})
    for derived in ("accepted", "guessed"):
        assert [int(row[derived]) for row in rows] == getattr(runs, derived).astype(int).tolist()
    return runs


class TestBounds:
    def test_json_rows(self, capsys):
        code, out = run_cli(capsys, "bounds", "--task", "A", "--parties", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "qccp-bounds-v1"
        assert len(payload["rows"]) == 5
        last = payload["rows"][-1]
        assert last["classical_success"] == 0.625
        assert last["quantum_success"] == 1.0

    def test_task_b_values(self, capsys):
        code, out = run_cli(capsys, "bounds", "--task", "B", "--parties", "5")
        rows = json.loads(out)["rows"]
        assert rows[-1]["classical_success"] == pytest.approx(0.5821, abs=1e-4)
        assert rows[-1]["quantum_success"] == pytest.approx(0.8927, abs=1e-4)

    def test_degenerate_single_party(self, capsys):
        _, out = run_cli(capsys, "bounds", "--task", "A", "--parties", "1")
        row = json.loads(out)["rows"][0]
        assert row["classical_success"] == row["quantum_success"] == 1.0

    def test_table_format(self, capsys):
        code, out = run_cli(capsys, "bounds", "--parties", "3", "--format", "delimited-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[0] == "task"
        assert len(lines) == 1 + 2 * 3  # header + both tasks

    def test_invalid_party_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--parties", "-2"])
        assert exc.value.code == 2

    # sha256 of `bounds --parties 6`, recorded while the bounds table had its
    # own row loop: a change to a value, a column or a cell's text shows here
    GOLDEN_SHA256 = {
        "structured-record": "330303e5a5a0df1eb24ed63f76fb2de0674689d9c4d0f8b2ae08c60f2679d851",
        "delimited-table": "12296920dff1bccf20541a6cb76eed1f325a3399b30a3d5fe28b944b5344144d",
    }

    @pytest.mark.parametrize("fmt", sorted(GOLDEN_SHA256))
    def test_golden_digests(self, capsys, fmt):
        code, out = run_cli(capsys, "bounds", "--parties", "6", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_SHA256[fmt]


class TestCertify:
    def test_n2_chain(self, capsys, tmp_path):
        out_file = tmp_path / "certify.json"
        code, _ = run_cli(capsys, "certify", "--parties", "2", "--tree", "chain", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["max_fidelity"] == 1.0
        assert payload["matches_closed_form"] is True
        assert payload["search_space"] == 4096
        assert len(payload["argmax_tables"]) == 2

    def test_n3_star(self, capsys):
        code, out = run_cli(capsys, "certify", "--parties", "3", "--tree", "star")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_fidelity"] == 0.5
        assert payload["search_space"] == 2**24

    @pytest.mark.parametrize("tree", ["chain", "star"])
    def test_four_parties(self, capsys, tree):
        code, out = run_cli(capsys, "certify", "--parties", "4", "--tree", tree)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_fidelity"] == payload["closed_form"] == 0.5
        assert payload["matches_closed_form"] is True

    # sha256 of the certify report, recorded when the report's argmax_tables
    # became the corner protocol of the Gaussian-integer certifier: a change
    # to the maximum, the protocol or the format shows here
    GOLDEN_SHA256 = {
        ("2", "chain", "structured-record"):
            "dc1ff1158f9ae0e1943c578ac43456b7a75718a72b82835e988624d811a1b713",
        ("2", "chain", "delimited-table"):
            "4add66ae8106de5ac4b3a888fd6e2683335087a644f132b36b92076e778202fe",
        ("3", "chain", "structured-record"):
            "fa34964a64e4be41ad2355183dcd6a0682b3b921e5895250076b6132ac900f52",
        ("3", "chain", "delimited-table"):
            "dbea2f722b9d9e32c29339bef356e984ba47c2468caaa02891f8991b5f934eed",
        ("3", "star", "structured-record"):
            "8f258f13dff59ec1bea12d2fe63b54bcd81e29c1e49084651c7ac4197652bb8a",
        ("3", "star", "delimited-table"):
            "9cb94e053943cb4f1f9817c738a0cec37434746e8fe3e7f6cb1de355c390df68",
    }

    @pytest.mark.parametrize("parties, tree, fmt", sorted(GOLDEN_SHA256))
    def test_golden_digests(self, capsys, tmp_path, parties, tree, fmt):
        out = tmp_path / "certify.out"
        code, _ = run_cli(
            capsys, "certify", "--parties", parties, "--tree", tree,
            "--format", fmt, "--out", str(out),
        )
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.GOLDEN_SHA256[parties, tree, fmt]

    @pytest.mark.parametrize("parties", ["2", "3", "4"])
    @pytest.mark.parametrize("tree", ["chain", "star"])
    def test_argmax_tables_reach_the_reported_maximum(self, capsys, parties, tree):
        code, out = run_cli(capsys, "certify", "--parties", parties, "--tree", tree)
        assert code == 0
        payload = json.loads(out)
        parents = getattr(CommTree, tree)(int(parties)).parents
        tuples = even_sum_tuples(int(parties))
        score = sum(task_value_a(t) * run_tables(payload["argmax_tables"], parents, t) for t in tuples)
        assert abs(score) / len(tuples) == payload["max_fidelity"]

    def test_parties_keep_their_own_range(self, capsys):
        # the CLI's 2..4 is its own, not the brute-force search's limit
        assert not hasattr(cli, "BRUTE_FORCE_MAX_PARTIES")
        for parties in ("1", "5"):
            with pytest.raises(SystemExit) as exc:
                main(["certify", "--parties", parties])
            assert exc.value.code == 2
            assert f"invalid choice: {parties} (choose from 2, 3, 4)" in capsys.readouterr().err


class TestOptimize:
    def test_small_search(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.tsv"
        code, out = run_cli(
            capsys, "optimize", "--parties", "2", "--grid", "16",
            "--restarts", "3", "--seed", "5", "--trace-out", str(trace_file),
        )
        assert code == 0
        payload = json.loads(out)
        target = classical_bound(Task.B, 2).fidelity
        assert payload["target_fidelity"] == target
        assert payload["best_fidelity"] <= target + 1e-12
        trace = payload["trace"]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        lines = trace_file.read_text().splitlines()
        assert lines[0] == "# schema: qccp-trace-v1"
        assert len(lines) == 2 + len(trace)

    def test_parties_up_to_the_float_limit(self, capsys):
        code, out = run_cli(capsys, "optimize", "--parties", "620", "--grid", "8", "--restarts", "1")
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(1.0)
        for n in ("621", "700"):
            assert main(["optimize", "--parties", n, "--grid", "8", "--restarts", "1"]) == 2
            assert "error: task B needs N <= 620 parties" in capsys.readouterr().err

    # sha256 of the optimize report and trace TSV, recorded while the task B
    # fidelity still had its own evaluator beside task A's parity-string sum
    GOLDEN_SHA256 = (
        "91691af5006afa983d55e3264e60293ce163ee010ef250caf6d1ea4d9958635e",
        "8cab2887d0eaf200f93a0eba19658400e53bdfd4e8c9fdf1fbe2555a1a744872",
    )

    def test_golden_digests(self, capsys, tmp_path):
        out, trace = tmp_path / "optimize.json", tmp_path / "trace.tsv"
        code, _ = run_cli(
            capsys, "optimize", "--parties", "5", "--grid", "64", "--restarts", "20",
            "--seed", "7", "--out", str(out), "--trace-out", str(trace),
        )
        assert code == 0
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (out, trace))
        assert digests == self.GOLDEN_SHA256

    # sha256 of the same report as a key/value table, recorded while that
    # table had its own writer
    TABLE_SHA256 = "e351ef9fc834e3993134ebd5c21068d0e183c507ccc5bccc9dc11baa16f3a03e"

    def test_table_digest(self, capsys, tmp_path):
        out = tmp_path / "optimize.tsv"
        code, _ = run_cli(
            capsys, "optimize", "--parties", "5", "--grid", "64", "--restarts", "20",
            "--seed", "7", "--format", "delimited-table", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.TABLE_SHA256

    # the same digests for 9 cells (an odd sign-table size) and 65 restarts,
    # recorded while every restart still ascended alone; at (3, 10) the best
    # restart is 47, at (4, 11) restarts 0, 39 and 62 tie for the best
    BLOCKS_SHA256 = {
        (3, 11): (
            "e4ab59b2a07acd4e902df861b01c861fd22c383c436aea3132af116248dec065",
            "b137162a817ec6c9176cf750768e4898f47a02a9b280b85a49ab14d22a47a509",
        ),
        (3, 10): (
            "458ac80f8e4d9c0a03438a1293e58b4c8f137d61739ed2c60d80eb91b3d80f76",
            "5f2cc9621d10dcce845ceb73b7d33d076017d5441b09f31eb92f175144c28a11",
        ),
        (4, 11): (
            "3192ed77268b740cf2ce1ed13b3901df98418e5c24912c11d12ba093fd8a0ba0",
            "f6ea3d29d6fdeb6eba1ce056e486b7ec55bdef3da5fb5418b8890635c593e6f2",
        ),
    }

    @pytest.mark.parametrize("parties, seed", sorted(BLOCKS_SHA256))
    def test_golden_digests_across_blocks(self, capsys, tmp_path, parties, seed):
        out, trace = tmp_path / "optimize.json", tmp_path / "trace.tsv"
        code, _ = run_cli(
            capsys, "optimize", "--parties", str(parties), "--grid", "9", "--restarts", "65",
            "--seed", str(seed), "--out", str(out), "--trace-out", str(trace),
        )
        assert code == 0
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (out, trace))
        assert digests == self.BLOCKS_SHA256[parties, seed]


class TestExperiment:
    ARGS = (
        "experiment", "--task", "A", "--parties", "3", "--n-target", "400",
        "--eta", "0.9", "--visibility", "1.0", "--seed", "11",
        "--block-size", "100",
    )

    def test_stats_payload(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_accepted"] == 400
        assert payload["eta"] == 0.9
        assert payload["gamma"] == 1.0
        assert payload["classical_success"] == 0.75
        assert 0.9 < payload["p_hat"] <= 1.0

    def test_files_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, _ = run_cli(capsys, *self.ARGS, "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        runs = parse_records_tsv(tmp_path / "run.json.records.tsv")
        assert len(runs) == payload["n_windows"]
        stats = success_stats(runs)
        assert stats.n == payload["n_accepted"]
        assert stats.p_hat == payload["p_hat"]
        assert stats.sigma == payload["sigma"]
        hist_lines = (tmp_path / "run.json.histogram.tsv").read_text().splitlines()
        assert hist_lines[0] == "# schema: qccp-histogram-v1"
        total_blocks = sum(int(line.split("\t")[2]) for line in hist_lines[2:])
        assert total_blocks == payload["n_accepted"] // 100

    def test_histogram_edges_are_plain_numbers(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        run_cli(capsys, *self.ARGS, "--out", str(out_file))
        lines = (tmp_path / "run.json.histogram.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[2:]]
        edges = np.linspace(0, 1, 101).tolist()
        assert [float(r[0]) for r in rows] == edges[:-1]
        assert [float(r[1]) for r in rows] == edges[1:]

    def test_ideal_device_emits_strict_json(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--task", "A", "--eta", "1", "--visibility", "1",
            "--seed", "1",
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["p_hat"] == 1
        assert payload["n_accepted"] == PRESETS["A"].n_target
        assert payload["sigma_violation"] is None

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run_cli(capsys, *self.ARGS, "--out", str(first))
        run_cli(capsys, *self.ARGS, "--out", str(second))
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.json.records.tsv").read_bytes() == (
            tmp_path / "b.json.records.tsv"
        ).read_bytes()

    def test_streams_partition_is_deterministic(self, capsys):
        _, out1 = run_cli(capsys, *self.ARGS, "--streams", "4")
        _, out2 = run_cli(capsys, *self.ARGS, "--streams", "4")
        assert out1 == out2
        assert json.loads(out1)["n_accepted"] == 400

    def test_record_rows_carry_their_stream_id(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        run_cli(capsys, *self.ARGS, "--streams", "4", "--out", str(out_file))
        lines = (tmp_path / "s.json.records.tsv").read_text().splitlines()
        header = lines[1].split("\t")
        stream_col = header.index("stream")
        ids = {line.split("\t")[stream_col] for line in lines[2:]}
        assert ids == {"0", "1", "2", "3"}

    def test_task_b_preset_inputs_are_floats(self, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        code, _ = run_cli(
            capsys, "experiment", "--task", "B", "--n-target", "50",
            "--seed", "3", "--out", str(out_file),
        )
        assert code == 0
        runs = parse_records_tsv(tmp_path / "b.json.records.tsv")
        assert np.count_nonzero(runs.accepted) == 50
        first = (tmp_path / "b.json.records.tsv").read_text().splitlines()[2].split("\t")
        assert all("." in v or "e" in v for v in first[9:])
        assert runs.inputs.shape[1] == 5 and runs.inputs.dtype == np.float64

    def test_zero_eta_reduces_to_coin_flipping(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--task", "A", "--n-target", "4000",
            "--eta", "0.0", "--seed", "13",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["p_hat"] - 0.5) < 3 * math.sqrt(0.25 / 4000)
        assert payload["predicted_success"] == 0.5

    def test_window_and_rate_overrides(self, capsys):
        _, out = run_cli(
            capsys, "experiment", "--task", "A", "--n-target", "50",
            "--trigger-rate", "10000", "--seed", "2",
        )
        payload = json.loads(out)
        assert payload["trigger_rate"] == 10000.0
        assert payload["window"] == 100e-6  # re-optimised for the new rate
        _, out = run_cli(
            capsys, "experiment", "--task", "A", "--n-target", "50",
            "--window", "5e-5", "--seed", "2",
        )
        assert json.loads(out)["window"] == 5e-5

    def test_invalid_eta_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--task", "A", "--eta", "1.5", "--n-target", "10"])
        assert exc.value.code == 2
        assert "argument --eta" in capsys.readouterr().err

    # sha256 of (report, records TSV, histogram TSV) for GOLDEN_ARGS, recorded
    # from the per-window engine that preceded the columnar one: a change to
    # the draws, their order or the file formats shows here
    GOLDEN_ARGS = ("--n-target", "600", "--streams", "2", "--block-size", "100", "--seed", "11")
    GOLDEN_SHA256 = {
        "A": (
            "607947e7cc9c10019b66cfb267f7ab0b2cc1f56a16b0ea9df1fa791eb9fbe7b6",
            "4744918490c9881a0fcb2fa952c60e2d76b2c1cfe7fe98da7df9fd97b34b4802",
            "7f1183294867d68634e5e65f8d534bce7a96676bbe2bc8f940e32c2d6b791a7a",
        ),
        "B": (
            "4ab153cbe2e086b8aeb9284fb3027a91624da2f03c413aeafddbe109843875b9",
            "47d2b95fb699d0b0f1544fb59415d708d012cfb251e2bb1ea36b96cf8e79efe2",
            "8e5840e1c2b9e5487261e9d3afcb38c9038d5c1037009aedd81c77b1b8b4d8d4",
        ),
    }

    @pytest.mark.parametrize("task", ["A", "B"])
    def test_golden_digests(self, capsys, tmp_path, task):
        out = tmp_path / "run.json"
        code, _ = run_cli(capsys, "experiment", "--task", task, *self.GOLDEN_ARGS, "--out", str(out))
        assert code == 0
        files = [out, tmp_path / "run.json.records.tsv", tmp_path / "run.json.histogram.tsv"]
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
        assert digests == self.GOLDEN_SHA256[task]

    # sha256 of the GOLDEN_ARGS report as a key/value table, recorded while the
    # report listed each parameter field by hand
    TABLE_SHA256 = {
        "A": "b6e98ed5675c9a27496367e5daf60fec872d0ec14be87e5f2d2d3b37950e5b93",
        "B": "d1a508cc6a2ba7a40831da6359d3c059b88ae5b253154550a30baea3c9de88f8",
    }

    @pytest.mark.parametrize("task", ["A", "B"])
    def test_table_digest(self, capsys, tmp_path, task):
        out = tmp_path / "run.tsv"
        code, _ = run_cli(
            capsys, "experiment", "--task", task, *self.GOLDEN_ARGS,
            "--format", "delimited-table", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.TABLE_SHA256[task]

    def test_gamma_and_visibility_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--task", "A", "--gamma", "0.9", "--visibility", "0.9"])
        assert exc.value.code == 2
        assert "--gamma" in capsys.readouterr().err

    def test_task_is_required(self, capsys):
        assert main(["experiment", "--n-target", "10"]) == 2
        assert "--task is required" in capsys.readouterr().err


def test_reused_parser_answers_as_a_fresh_one(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("parties = 3\ntree = star\n")
    calls = [
        ["bounds", "--parties", "2"],
        ["optimize", "--parties", "2", "--grid", "8", "--restarts", "2", "--seed", "3"],
        ["certify", "--tree", "chian"],
        ["certify", "--config", str(config)],
        ["certify", "--parties", "2"],
    ]

    def outcomes(fresh: bool):
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            captured = capsys.readouterr()
            seen.append((status, captured.out, captured.err))
        return seen

    reused = outcomes(fresh=False)
    assert outcomes(fresh=True) == reused
    assert [status for status, _, _ in reused] == [0, 0, 2, 0, 0]
    assert "invalid choice: 'chian'" in reused[2][2]
    assert cli.build_parser() is cli.build_parser()


def experiment_params(task, *flags):
    return cli._experiment_params(cli.build_parser().parse_args(["experiment", "--task", task, *flags]))


@pytest.mark.parametrize("task", ["A", "B"])
@pytest.mark.parametrize("flags, changes", [
    ((), {}),
    (("--parties", "3"), {"n_parties": 3}),
    (("--n-target", "40"), {"n_target": 40}),
    (("--eta", "0.3"), {"eta": 0.3}),
    (("--visibility", "0.5"), {"visibility": 0.5}),
    (("--window", "5e-05"), {"window": 5e-5}),
    # a new rate alone moves the window to that rate's optimum
    (("--trigger-rate", "8000"), {"trigger_rate": 8000.0, "window": optimize_window(8000.0).window}),
    (("--trigger-rate", "8000", "--window", "5e-05"), {"trigger_rate": 8000.0, "window": 5e-5}),
])
def test_each_flag_overrides_only_its_field(task, flags, changes):
    assert experiment_params(task, *flags) == dataclasses.replace(PRESETS[task], **changes)


@pytest.mark.parametrize("task", ["A", "B"])
def test_gamma_is_the_visibility_it_gives(task):
    visibility = visibility_from_gamma(Task(task), 0.8)
    from_gamma = experiment_params(task, "--gamma", "0.8")
    assert from_gamma == experiment_params(task, "--visibility", repr(visibility))
    assert from_gamma == dataclasses.replace(PRESETS[task], visibility=visibility)


class TestConfigAndEnv:
    def test_config_file_supplies_flags(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("task = A\nn-target = 300\neta = 0.8\nvisibility = 1.0\nseed = 4\n")
        code, out = run_cli(capsys, "experiment", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_accepted"] == 300 and payload["eta"] == 0.8

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("task=A\nn_target=300\neta=0.8\nvisibility=1.0\nseed=4\n")
        _, out = run_cli(capsys, "experiment", "--config", str(config), "--eta", "0.6")
        assert json.loads(out)["eta"] == 0.6

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("task=A\nbogus=1\n")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(config)])
        assert exc.value.code == 2
        assert f"config {config}: unknown config keys: ['bogus']" in capsys.readouterr().err

    def test_malformed_config_line_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("task A\n")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(config)])
        assert exc.value.code == 2
        assert f"config {config}:1: expected key=value" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, capsys, tmp_path):
        config = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(config)])
        assert exc.value.code == 2
        assert f"config {config}: cannot read" in capsys.readouterr().err

    def test_seed_env_variable(self, capsys, monkeypatch):
        args = ("experiment", "--task", "A", "--n-target", "100", "--eta", "0.9", "--visibility", "1.0")
        monkeypatch.setenv("QCCP_SEED", "77")
        _, out_env = run_cli(capsys, *args)
        assert json.loads(out_env)["seed"] == 77
        _, out_env2 = run_cli(capsys, *args)
        assert out_env == out_env2
        monkeypatch.setenv("QCCP_SEED", "78")
        _, out_other = run_cli(capsys, *args)
        assert json.loads(out_other)["seed"] == 78
        assert out_other != out_env

    def test_bad_seed_variable_is_named(self, capsys, monkeypatch):
        for bad in ("abc", "-3"):
            monkeypatch.setenv("QCCP_SEED", bad)
            assert main(["experiment", "--task", "A", "--n-target", "10"]) == 2
            assert f"QCCP_SEED='{bad}'" in capsys.readouterr().err

    def test_bad_config_value_names_file_line_and_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# shape\nparties = 3\ntree = chian\n")
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--config", str(config)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"config {config}:3 (tree = chian)" in err and "--tree" in err


BAD_VALUES = [
    ("optimize", "parties", "0"),
    ("optimize", "restarts", "0"),
    ("optimize", "grid", "0"),
    ("optimize", "grid", "7"),
    ("optimize", "seed", "-1"),
    ("experiment", "seed", "-1"),
    ("experiment", "streams", "0"),
    ("experiment", "block-size", "0"),
    ("experiment", "trigger-rate", "nan"),
    ("experiment", "window", "inf"),
    ("certify", "tree", "chian"),
    ("bounds", "format", "xml"),
    ("bounds", "parties", "0"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", BAD_VALUES)
def test_bad_values_fail_loudly(capsys, tmp_path, command, key, value, source):
    if source == "flag":
        argv = [command, f"--{key}", value]
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = {value}\n")
        argv = [command, "--config", str(config)]
    if command == "experiment":
        argv += ["--task", "A"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--{key}" in err and value in err


@pytest.mark.parametrize("argv", [
    ["certify", "--parties", "2", "--out"],
    ["optimize", "--parties", "2", "--grid", "8", "--restarts", "1", "--trace-out"],
    ["experiment", "--task", "A", "--n-target", "10", "--out"],
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    assert main([*argv, str(path)]) == 2
    assert f"error: cannot write {path}: {os.strerror(errno.ENOENT)}" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["bounds"], ["experiment", "--task", "A", "--n-target", "10"]])
def test_full_device_error_names_the_path(capsys, argv):
    # the error comes from the write or the close, whose OSError carries no file name
    assert main([*argv, "--out", "/dev/full"]) == 2
    assert f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}" in capsys.readouterr().err


class TestRewrite:
    """Every output file is rewritten in place and cut where its new text ends."""

    @pytest.mark.parametrize("longer, shorter", [
        (["certify", "--parties", "3"], ["certify", "--parties", "2"]),
        (["experiment", "--task", "A", "--n-target", "300", "--block-size", "50", "--seed", "3"],
         ["experiment", "--task", "A", "--n-target", "100", "--block-size", "50", "--seed", "3"]),
    ])
    def test_shorter_rerun_leaves_no_stale_tail(self, capsys, tmp_path, longer, shorter):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        fresh.mkdir()
        assert main([*longer, "--out", str(reused / "r")]) == 0
        before = {p.name: p.stat().st_size for p in reused.iterdir()}
        assert main([*shorter, "--out", str(reused / "r")]) == 0
        assert main([*shorter, "--out", str(fresh / "r")]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(before)
        assert all((fresh / n).stat().st_size < before[n] for n in names if "histogram" not in n)
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_rerun_keeps_inode_and_mode(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("x" * 10_000)
        out.chmod(0o600)
        before = out.stat()
        assert main(["certify", "--parties", "2", "--out", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert after.st_size < 10_000 and json.loads(out.read_text())

    def test_a_new_file_gets_the_mode_open_gives(self, capsys, tmp_path):
        assert main(["certify", "--parties", "2", "--out", str(tmp_path / "new.json")]) == 0
        (tmp_path / "ref").open("w").close()
        modes = [(tmp_path / n).stat().st_mode for n in ("new.json", "ref")]
        assert modes[0] == modes[1]

    def test_non_regular_targets_are_streamed(self, capsys):
        argv = ["optimize", "--parties", "2", "--grid", "8", "--restarts", "1"]
        assert main([*argv, "--out", os.devnull, "--trace-out", os.devnull]) == 0

    def test_a_failed_write_leaves_the_prefix_written(self, capsys, tmp_path, monkeypatch):
        argv = ["experiment", "--task", "A", "--seed", "3"]
        records = tmp_path / "r.records.tsv"
        assert main([*argv, "--n-target", "2000", "--out", str(tmp_path / "r")]) == 0
        assert main([*argv, "--n-target", "1000", "--out", str(tmp_path / "full")]) == 0
        full = (tmp_path / "full.records.tsv").read_bytes()
        assert records.stat().st_size > len(full) and full.count(b"\n") > 2 + tsv.RECORDS_BLOCK_ROWS
        rows, calls = tsv._rows, []

        def fail_second(blocks):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return rows(blocks)

        monkeypatch.setattr(tsv, "_rows", fail_second)
        assert main([*argv, "--n-target", "1000", "--out", str(tmp_path / "r")]) == 2
        assert f"error: cannot write {records}: {os.strerror(errno.EIO)}" in capsys.readouterr().err
        got = records.read_bytes()
        assert got == full[: len(got)] and got.count(b"\n") == 2 + tsv.RECORDS_BLOCK_ROWS


@pytest.mark.parametrize("to_file", [False, True])
def test_unwritable_trace_emits_no_report(capsys, tmp_path, to_file):
    trace = tmp_path / "missing" / "t.tsv"
    report = tmp_path / "report.json"
    argv = ["optimize", "--parties", "2", "--grid", "8", "--restarts", "1", "--trace-out", str(trace)]
    assert main(argv + (["--out", str(report)] if to_file else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {trace}: {os.strerror(errno.ENOENT)}" in captured.err
    assert not report.exists()


def test_quantum_exact_check_fails_on_a_broken_model(monkeypatch):
    # digit 2 turns the qubit by +1 instead of -1: the model, not the target, is wrong
    monkeypatch.setattr(quantum, "_QUARTER_UNITS", np.array([1, 1j, 1, -1j]))
    checks = cli._reproduction_checks(7)
    assert [c.name for c in checks if not c.passed] == ["quantum-exact-A-N1..6"]
    assert next(c for c in checks if not c.passed).observed > 0


# sha256 of `reproduce --seed 7 --format delimited-table --out F`: the verdict
# table and the check lines on stdout, recorded while each exact and abs check
# wrote its tolerance twice, as text and as code
REPRODUCE_TABLE_SHA256 = (
    "0be99d428c0222eb866c0dc2afc991aa57e1986fb88c0b77bea6207d3fd24786",
    "8c98605bee3ff3faf11458448deac50b5e256796349ccafda2e99ae45844bcfe",
)


def test_reproduce_table_digests(capsys, tmp_path):
    out = tmp_path / "reproduce.tsv"
    argv = ["reproduce", "--seed", "7", "--format", "delimited-table", "--out", str(out)]
    code, stdout = run_cli(capsys, *argv)
    assert code == 0
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (out.read_bytes(), stdout.encode()))
    assert digests == REPRODUCE_TABLE_SHA256


def test_window_checks_fail_just_past_their_tolerance(monkeypatch):
    # one part in 10^15 off an exact check, 10^-11 off a check to within 10^-12
    near_miss = WindowChoice(200e-6 * (1 + 1e-15), math.exp(-1.0) + 1e-11)
    monkeypatch.setattr(cli, "optimize_window", lambda rate: near_miss)
    checks = cli._reproduction_checks(7)
    assert [c.name for c in checks if not c.passed] == ["window-optimum", "window-accept-prob"]


def test_entry_point_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_overflowing_window_names_rate_and_window(capsys):
    # rate * window overflows to inf, so P(single trigger) = inf * 0 is NaN
    code = main(["experiment", "--task", "A", "--trigger-rate", "1e200", "--window", "1e200"])
    assert code == 2
    err = capsys.readouterr().err
    assert "trigger_rate 1e+200 and window 1e+200" in err and "unusable" in err


def test_subnormal_rate_names_the_trigger_rate(capsys):
    # with no --window the window is 1/rate, which overflows to inf here
    code = main(["experiment", "--task", "A", "--trigger-rate", "1e-320"])
    assert code == 2
    err = capsys.readouterr().err
    assert "trigger_rate 1e-320" in err and "window must be" not in err


INTS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["", "abc", "1.5", "1e3"]))
FLOATS = st.one_of(
    st.floats(-0.5, 1.5, allow_nan=False).map(repr), st.sampled_from(["", "nan", "inf", "x"])
)


def choices(*valid):
    return st.sampled_from([*valid, "", "chian", "C", "xml"])


FORMATS = choices(*cli.FORMATS)
KEYS = {
    "experiment": {
        "task": choices("A", "B"), "parties": INTS, "seed": INTS, "streams": INTS,
        "n-target": INTS, "eta": FLOATS, "gamma": FLOATS, "visibility": FLOATS,
        "trigger-rate": FLOATS, "window": FLOATS, "block-size": INTS, "format": FORMATS,
    },
    "optimize": {
        "parties": INTS, "grid": INTS, "restarts": INTS, "seed": INTS, "format": FORMATS,
    },
    "certify": {"parties": INTS, "tree": choices("chain", "star"), "format": FORMATS},
}


def parse_status(argv):
    """main's exit status and parsed arguments, with each command's body replaced.

    The experiment stand-in still builds its parameters, so out-of-range
    values fail as they do in a real run.  Arguments come back as a repr,
    so that NaN values compare equal.
    """
    seen = {}

    def record(args):
        seen.update(vars(args), config=None, func=None)
        if args.command == "experiment":
            cli._experiment_params(args)
        return 0

    with mock.patch.multiple(cli, cmd_experiment=record, cmd_optimize=record, cmd_certify=record):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, repr(sorted(seen.items()))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_values_behave_as_flags(data):
    command = data.draw(st.sampled_from(sorted(KEYS)))
    keys = data.draw(st.lists(st.sampled_from(sorted(KEYS[command])), min_size=1, max_size=3, unique=True))
    values = {key: data.draw(KEYS[command][key], label=key) for key in keys}
    extra = ["--task", "A"] if command == "experiment" and "task" not in values else []
    as_flags = parse_status([command, *(f"--{k}={v}" for k, v in values.items()), *extra])
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        from_config = parse_status([command, "--config", str(config), *extra])
    assert as_flags == from_config
