"""The benchmark's workloads: their inputs, operations and checks.

A workload is a list of operations that one pass runs in order.  Inputs are
made from the benchmark seed alone, and every pass repeats the same inputs,
so later passes rerun earlier ones and must reproduce them.  An operation's
``run`` is the timed call into ``qccp``; its ``check`` runs afterwards,
untimed, against the references in :mod:`checks`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from qccp import classical, cli, quantum, sampling, tasks

import checks

MC_ROWS = 1_000_000
PROTOCOL_MC_SAMPLES = 20_000
CELLS = 64
RESTARTS = 20


class OpFailed(Exception):
    """A command exited with an error, as opposed to producing a wrong output."""


@dataclass
class Op:
    """One timed operation of a pass.

    ``items`` is its work in the workload's throughput unit (0 when it does
    not count towards throughput).  When ``fail_on_check`` is set, a failed
    check counts the operation as failed instead of marking the run incorrect.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    items: int = 0
    fail_on_check: bool = False


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qccp {' '.join(argv)} exited {code}")


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


# --- experiment-presets -------------------------------------------------------


def _experiment_op(task: str, seed: int, work: Path) -> Op:
    out = work / f"experiment-{task}-{seed}.json"
    files = [out, Path(f"{out}.records.tsv"), Path(f"{out}.histogram.tsv")]
    argv = ["experiment", "--task", task, "--seed", str(seed), "--out", str(out)]
    first: list[str] = []  # digests of the first run's files, once checked

    def check(_):
        digests = [checks.digest(f) for f in files]
        if first:
            checks.require(digests == first, f"rerun of {op.name} is not byte-identical")
            return
        report = checks.strict_json(out.read_text())
        checks.check_experiment_report(report, task, seed)
        outcomes = checks.check_records_tsv(files[1], report, task)
        checks.check_histogram_tsv(files[2], outcomes)
        first.extend(digests)
        op.items = report["n_windows"]

    op = Op(f"experiment-{task}-{seed}", lambda: _cli(argv), check)
    return op


def _ideal_device_op() -> Op:
    """The ideal device (eta = 1, V = 1) at a fixed seed; must emit strict JSON."""
    argv = ["experiment", "--task", "A", "--eta", "1", "--visibility", "1", "--seed", "1"]

    def run() -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    return Op("experiment-ideal-device", run, checks.check_ideal_report, fail_on_check=True)


def experiment_presets(seed: int, work: Path) -> list[Op]:
    seeds = _seeds(seed, 2)
    ops = [_experiment_op(task, s, work) for task in "AB" for s in seeds]
    return ops + [_ideal_device_op()]


# --- certify-trees ----------------------------------------------------------


def _certify_op(n: int, shape: str, work: Path) -> Op:
    out = work / f"certify-{shape}-{n}.json"
    argv = ["certify", "--parties", str(n), "--tree", shape, "--out", str(out)]
    return Op(
        f"certify-{shape}-{n}",
        lambda: _cli(argv),
        lambda _: checks.check_certify_report(json.loads(out.read_text()), n, shape),
        items=checks.nominal_search_space(n, shape),
    )


def _optimize_op(n: int, seed: int, work: Path) -> Op:
    out, trace = work / f"optimize-{n}.json", work / f"optimize-{n}.trace.tsv"
    argv = [
        "optimize", "--parties", str(n), "--grid", str(CELLS), "--restarts",
        str(RESTARTS), "--seed", str(seed), "--out", str(out), "--trace-out", str(trace),
    ]
    return Op(
        f"optimize-{n}",
        lambda: _cli(argv),
        lambda _: checks.check_optimize(
            json.loads(out.read_text()), trace.read_text(), n, RESTARTS),
    )


def _protocol_mc_op(seed: int, work: Path) -> Op:
    """fidelity_mc of the chain-3 argmax protocol that this pass's certify wrote."""
    report = work / "certify-chain-3.json"
    tree = classical.CommTree.chain(3)

    def run():
        tables = json.loads(report.read_text())["argmax_tables"]
        protocol = classical.GeneralProtocolA(tree=tree, tables=tuple(np.array(t) for t in tables))
        rng = np.random.default_rng([seed, 3])
        return classical.fidelity_mc(protocol, tree, tasks.Task.A, PROTOCOL_MC_SAMPLES, rng)

    return Op(
        "protocol-mc-chain-3",
        run,
        lambda r: checks.check_mc_fidelity(
            r[0], r[1], PROTOCOL_MC_SAMPLES, checks.classical_fidelity("A", 3),
            "chain-3 argmax fidelity_mc"),
    )


def certify_trees(seed: int, work: Path) -> list[Op]:
    reference = checks.product_fidelities_a(checks.N_PARTIES)
    ops = [_certify_op(n, shape, work) for n, shape in ((2, "chain"), (3, "chain"), (3, "star"))]
    ops.append(Op(
        "exhaust-product-5",
        lambda: classical.exhaust_product_strategies_a(checks.N_PARTIES),
        lambda r: checks.check_exhaust(r[0], r[1], reference),
    ))
    ops += [_optimize_op(n, s, work) for n, s in zip(range(2, 6), _seeds(seed, 4))]
    return ops + [_protocol_mc_op(seed, work)]


# --- batch-mc ---------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _b_op(name: str, seed: int, stream: int, visibility: float) -> Op:
    def run():
        rng = _rng(seed, stream)
        inputs = sampling.sample_b(checks.N_PARTIES, rng, MC_ROWS)
        truth = tasks.task_value_batch(tasks.Task.B, inputs)
        return inputs, truth, quantum.run_quantum_batch(tasks.Task.B, inputs, visibility, rng)

    return Op(name, run, lambda r: checks.check_b_rows(*r, visibility, name), items=MC_ROWS)


def _a_op(seed: int) -> Op:
    def run():
        rng = _rng(seed, 3)
        inputs = sampling.sample_a(checks.N_PARTIES, rng, MC_ROWS)
        return inputs, quantum.run_quantum_batch(tasks.Task.A, inputs, 1.0, rng)

    return Op("quantum-A-ideal", run, lambda r: checks.check_a_rows(*r), items=MC_ROWS)


def _product_mc_op(name: str, seed: int, stream: int, strategy, task, expected: float) -> Op:
    tree = classical.CommTree.chain(checks.N_PARTIES)
    return Op(
        name,
        lambda: classical.fidelity_mc(strategy, tree, task, MC_ROWS, _rng(seed, stream)),
        lambda r: checks.check_mc_fidelity(r[0], r[1], MC_ROWS, expected, name),
        items=MC_ROWS,
    )


def batch_mc(seed: int, work: Path) -> list[Op]:
    n = checks.N_PARTIES
    _, gamma, _ = checks.PUBLISHED["B"]
    visibility_b = (2.0 * gamma - 1.0) / (math.pi / 4.0)
    # an optimal task-A product strategy, picked by the seed
    fids = checks.product_fidelities_a(n)
    optimal = np.flatnonzero(fids == fids.max())
    index = int(optimal[np.random.default_rng(seed).integers(len(optimal))])
    signs_a = 1 - 2 * ((index >> (2 * np.arange(n)[:, None] + np.arange(2)[None, :])) & 1)
    # the step strategy +1 on [0, pi/2), -1 on [pi/2, pi) for every party
    signs_b = np.tile(np.where(np.arange(CELLS) < CELLS // 2, 1, -1), (n, 1))
    return [
        _b_op("quantum-B-ideal", seed, 1, 1.0),
        _b_op("quantum-B-preset", seed, 2, visibility_b),
        _a_op(seed),
        _product_mc_op("product-mc-A", seed, 4, classical.ProductStrategyA(signs_a),
                       tasks.Task.A, float(fids[index])),
        _product_mc_op("product-mc-B", seed, 5, classical.ProductStrategyB(signs_b),
                       tasks.Task.B, checks.fidelity_b_cells(signs_b)),
    ]


WORKLOADS = {
    "experiment-presets": experiment_presets,
    "certify-trees": certify_trees,
    "batch-mc": batch_mc,
}
