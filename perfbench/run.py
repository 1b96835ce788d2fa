"""Benchmark of the qccp package: one command, three workloads.

    python3 perfbench/run.py --workload experiment-presets --seed 1 --seconds 25 --trace 0

Runs from the root of a source tree holding ``src/qccp``.  It times the set-up
of fresh interpreters that import ``qccp``, then starts one workload process
(``worker.py``) with BLAS/OpenMP thread counts pinned to 1, and prints every
metric by name and unit.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The full
result, with versions, thread settings and seed, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.  ``--workload all``
runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("experiment-presets", "certify-trees", "batch-mc")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_PROBES = 9
PROBE = "import qccp, qccp.cli; print('ready', flush=True)"
TIME_LIMIT_S = 170.0
ADDR_NO_RANDOMIZE = 0x0040000
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "throughput": "items/s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("QCCP_SEED", None)
    return env


def fixed_layout() -> None:
    """Turn off address-space randomisation in a child before it starts.

    Randomisation moves large temporaries between otherwise identical
    processes, and with them their huge-page coverage, speed and peak RSS.
    A fixed layout makes every run's process start from the same one.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Wall time from starting an interpreter until ``qccp`` is imported."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              preexec_fn=fixed_layout) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            if probe.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("a fresh interpreter could not import qccp")
    return times


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = child_env()
    started = time.perf_counter()
    setup = setup_seconds(env)
    work = OUT / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result_file = work / "result.json"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(work), "--result-file", str(result_file)],
            env=env, cwd=ROOT, stdout=sys.stderr, check=True, preexec_fn=fixed_layout,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started),
        )
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = statistics.median(setup)
    result["setup_probes_s"] = setup
    result["environment"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": result.pop("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
        "address_randomisation": "off",
    }
    return result


def report(workload: str, result: dict, trace: int) -> dict:
    """Print the metrics table; return the one-line summary object."""
    if trace:
        units = layer_units()
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{workload}: {result['passes']} passes, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for line in result["failures"] + result["incorrect"]:
        print(f"  ! {line}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qccp" / "__init__.py").is_file():
        print(f"error: no qccp source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    summaries = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True))
        summaries[workload] = report(workload, result, args.trace)
    correct = all(s["correct"] for s in summaries.values())
    print(json.dumps(summaries[args.workload] if args.workload != "all" else summaries))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
