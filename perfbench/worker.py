"""The workload process: runs whole passes of one workload and measures them.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; writes its measurements
as JSON to ``--result-file``.  Passes repeat until ``--seconds`` have passed
(at least two, so every operation is rerun once).  With ``--trace 1`` passes
alternate untraced and traced; per-layer metrics come from the traced ones
and the ratio of their wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import checks
import workloads
from tracing import Tracer


def layer_metrics(pass_trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, counts = pass_trace["spans"], pass_trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def rate(rows_key, name):
        return counts.get(rows_key, 0) / self_s(name) if self_s(name) > 0 else 0.0

    accepted = counts.get("experiment.accepted", 0)
    metrics = {
        "tasks.task_value.calls": calls("tasks.task_value"),
        "sampling.sample_inputs.calls": calls("sampling.sample_inputs"),
        "quantum.run_quantum.calls": calls("quantum.run_quantum"),
        "classical.run_protocol.calls": calls("classical.run_protocol"),
        "experiment.simulate_run.calls": calls("experiment.simulate_run"),
        "classical.coordinate_ascent_b.sweeps": counts.get("classical.coordinate_ascent_b.sweeps", 0),
        "cli.write_records_tsv.bytes": counts.get("cli.write_records_tsv.bytes", 0),
        "sampling.sample_b.rows_per_s": rate("sampling.sample_b.rows", "sampling.sample_b"),
        "quantum.run_quantum_batch.rows_per_s": rate(
            "quantum.run_quantum_batch.rows", "quantum.run_quantum_batch"),
        "experiment.sampled_per_accepted": (
            counts.get("experiment.sampled_in_stream_runs", 0) / accepted if accepted else 0.0),
    }
    for name in (
        "tasks.task_value", "tasks.task_value_batch",
        "sampling.sample_inputs", "sampling.sample_a", "sampling.sample_b",
        "quantum.run_quantum", "quantum.run_quantum_batch",
        "classical.brute_force_bound_a", "classical.fidelity_mc", "classical.run_protocol",
        "classical.exhaust_product_strategies_a", "classical.optimize_strategy_b",
        "experiment.stream_runs", "experiment.simulate_run",
        "stats.success_stats", "stats.block_histogram",
        "cli.write_records_tsv", "cli.write_histogram_tsv",
    ):
        metrics[f"{name}.self_s"] = self_s(name)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ops = workloads.WORKLOADS[workload](seed, work)
    tracer = Tracer()
    passes: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    incorrect: list[str] = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        durations = {}
        for op in ops:
            attempted += 1
            gc.collect()
            t0 = time.perf_counter()
            try:
                output = tracer.span(f"op:{op.name}", op.run) if traced else op.run()
            except Exception as exc:  # any error ends this operation, not the run
                failed += 1
                failures.append(f"{op.name}: {exc!r}")
                continue
            finally:
                durations[op.name] = time.perf_counter() - t0
            try:
                op.check(output)
            except checks.CheckFailure as exc:
                if op.fail_on_check:
                    failed += 1
                    failures.append(f"{op.name}: {exc}")
                else:
                    incorrect.append(f"{op.name}: {exc}")
            except Exception:  # an output the checks cannot even read is wrong
                incorrect.append(f"{op.name}: {traceback.format_exc(limit=2)}")
            del output
        record = {"traced": traced, "durations": durations}
        if traced:
            tracer.uninstall()
            record["trace"] = tracer.drain()
            record["layers"] = layer_metrics(record["trace"])
        passes.append(record)

    plain = [p for p in passes if not p["traced"]]
    median_s = {op.name: statistics.median(p["durations"][op.name] for p in plain) for op in ops}
    counted = [op for op in ops if op.items]
    result = {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "incorrect": incorrect,
        "passes": len(passes),
        "op_median_s": median_s,
        "pass_durations": [p["durations"] for p in plain],
        "op_items": {op.name: op.items for op in counted},
        "wall_s": sum(median_s.values()),
        "throughput": sum(op.items for op in counted) / sum(median_s[op.name] for op in counted),
        "numpy": numpy.__version__,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if "protocol-mc-chain-3" in median_s:
        result["protocol_mc.samples_per_s"] = (
            workloads.PROTOCOL_MC_SAMPLES / median_s["protocol-mc-chain-3"])
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        names = traced_passes[0]["layers"]
        result["layers"] = {
            name: statistics.median(p["layers"][name] for p in traced_passes) for name in names
        }
        wall = statistics.median(sum(p["durations"].values()) for p in traced_passes)
        result["layers"]["tracing.wall_ratio"] = wall / statistics.median(
            sum(p["durations"].values()) for p in plain)
        result["trace_passes"] = [p["trace"] for p in traced_passes]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result-file", type=Path, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    args.result_file.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
