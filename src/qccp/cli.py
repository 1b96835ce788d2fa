"""Command-line front end: bounds, certification, optimisation, simulation.

Commands are deterministic given (configuration, seed): rerunning one with
the same inputs produces byte-identical output files, so reports never embed
timestamps or durations.  The default seed comes from the QCCP_SEED
environment variable; a flat key=value config file may supply any flag, and
explicit flags win over the file.

Two serialisation formats exist: ``structured-record`` (JSON, for tests and
tooling) and ``delimited-table`` (TSV, for external plotting).  Record logs
and histograms are inherently tabular and always ship as TSV with a
``# schema:`` header line, written by :mod:`qccp.tsv`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .classical import (
    MIN_GRID_CELLS,
    CommTree,
    certify_bound_a,
    classical_bound,
    exhaust_product_strategies_a,
    optimize_strategy_b,
)
from .experiment import (
    PRESETS,
    ExperimentParams,
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
from .tasks import Task, real_in, task_value_batch, whole_count
from .tsv import _key_values, _table, _write, write_histogram_tsv, write_records_tsv

DEFAULT_SEED = 7
SEED_ENV_VAR = "QCCP_SEED"

FORMATS = ("structured-record", "delimited-table")


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def _flag_type(convert, rule, *bounds):
    """An argparse type: ``convert(text)`` held to the library's rule for it (``whole_count``, ``real_in``)."""
    def parse(text: str):
        try:
            return rule("value", convert(text), *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


positive_int = _flag_type(int, whole_count, 1)
non_negative_int = _flag_type(int, whole_count, 0)
grid_cells = _flag_type(int, whole_count, MIN_GRID_CELLS)
positive_float = _flag_type(float, real_in, 0.0, math.inf, True)
unit_float = _flag_type(float, real_in, 0.0, 1.0)


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
    result = certify_bound_a(tree)
    closed = classical_bound(Task.A, args.parties).fidelity
    payload = {
        "schema": "qccp-certify-v1",
        "task": "A",
        "n_parties": args.parties,
        "tree": args.tree,
        "max_fidelity": float(result.max_fidelity),
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

    # certified reduction over all general protocols
    for n, shape in ((2, "chain"), (3, "chain"), (3, "star")):
        got = certify_bound_a(getattr(CommTree, shape)(n)).max_fidelity
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

    p = sub.add_parser("certify", help="certify the task A bound over all protocols, with one that reaches it")
    # certify_bound_a takes any N; 2..4 keeps reports small, as argmax_tables
    # lists a star root's 4 * 2^(N-1) entries and search_space runs past 2^(N+1) bits
    p.add_argument("--parties", type=int, choices=range(2, 5), default=3)
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
    p.add_argument("--eta", type=unit_float, default=None)
    contrast = p.add_mutually_exclusive_group()
    contrast.add_argument("--gamma", type=float, default=None)
    contrast.add_argument("--visibility", type=unit_float, default=None)
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
