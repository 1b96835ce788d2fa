"""Span tracing around the public functions of each ``qccp`` module.

The tracer swaps each traced function for a wrapper in every ``qccp`` module
namespace that binds it, so calls between modules are caught as well as the
benchmark's own calls.  Each call records a span (name, start, end, parent);
spans started inside one benchmark operation share that operation's root.
A span's self time is its duration minus the time its direct children cover.
:meth:`Tracer.uninstall` puts the original functions back, so untraced and
traced passes can alternate in one process.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


def _rows(result) -> int:
    return result.shape[0] if getattr(result, "ndim", 1) == 2 else 1


def _accepted(result) -> int:
    return sum(r.accepted for _, chunk in result for r in chunk)


# module -> {function: hook(tracer, args, result)}; a hook records counts
# measured at the boundary, where the work happens
TRACED = {
    "tasks": {"task_value": None, "task_value_batch": None},
    "sampling": {
        "sample_inputs": lambda t, a, r: t.count(
            "experiment.sampled_in_stream_runs", t.active["experiment.stream_runs"] > 0),
        "sample_a": lambda t, a, r: t.count("sampling.sample_a.rows", _rows(r)),
        "sample_b": lambda t, a, r: t.count("sampling.sample_b.rows", _rows(r)),
    },
    "quantum": {
        "run_quantum": None,
        "run_quantum_batch": lambda t, a, r: t.count("quantum.run_quantum_batch.rows", len(r)),
    },
    "classical": {
        "brute_force_bound_a": None,
        "fidelity_mc": None,
        "run_protocol": None,
        "exhaust_product_strategies_a": None,
        "optimize_strategy_b": None,
        "coordinate_ascent_b": lambda t, a, r: t.count(
            "classical.coordinate_ascent_b.sweeps", len(r.trace) - 1),
    },
    "experiment": {
        "stream_runs": lambda t, a, r: t.count("experiment.accepted", _accepted(r)),
        "simulate_run": None,
    },
    "stats": {"success_stats": None, "block_histogram": None},
    "cli": {
        "write_records_tsv": lambda t, a, r: t.count(
            "cli.write_records_tsv.bytes", os.path.getsize(a[0])),
        "write_histogram_tsv": None,
    },
}


class Tracer:
    """Collects spans and boundary counts for the passes it is installed for."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent]
        self.spans.append(record)
        self.stack.append(index)
        self.active[name] += 1
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.active[name] -= 1
            self.stack.pop()

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "qccp"]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"qccp.{module_name}"]
            for fn_name, hook in functions.items():
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def drain(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total and self seconds of the spans so far; resets."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return {"spans": dict(table), "counts": counts}
