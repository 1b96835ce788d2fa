"""Negative self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Each check first accepts a real output of the program, then is fed a
corrupted copy and must reject it, so no check passes vacuously.  Prints one
line per case and exits non-zero if any check accepts a corrupted output.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from qccp import classical, cli, quantum, sampling, tasks  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 5
results: list[bool] = []


def expect(name: str, good, bad, reason: str = "") -> None:
    """``good()`` must pass and ``bad()`` must raise CheckFailure mentioning ``reason``."""
    try:
        good()
    except checks.CheckFailure as exc:
        print(f"FAIL {name}: the uncorrupted output was rejected: {exc}")
        results.append(False)
        return
    try:
        bad()
    except checks.CheckFailure as exc:
        ok = reason in str(exc)
        print(f"{'PASS' if ok else 'FAIL'} {name}: rejected ({exc})")
        results.append(ok)
        return
    print(f"FAIL {name}: the corrupted output was accepted")
    results.append(False)


def flip_truth(src: Path, dst: Path) -> None:
    """Copy a records log with the truth of its first accepted row negated."""
    lines = src.read_text().split("\n")
    for i, line in enumerate(lines[2:], 2):
        f = line.split("\t")
        if f[4] == "1":
            f[8] = str(-int(f[8]))
            lines[i] = "\t".join(f)
            break
    dst.write_text("\n".join(lines))


def moved_p_hat(report: dict, sigmas: float) -> dict:
    """The report with successes (and so p_hat and sigma) moved by ``sigmas``."""
    bad = copy.deepcopy(report)
    n = bad["n_accepted"]
    bad["successes"] += math.ceil(sigmas * bad["sigma"] * n)
    p = bad["successes"] / n
    bad["p_hat"], bad["sigma"] = p, math.sqrt(p * (1 - p) / n)
    return bad


def main() -> int:
    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        experiment_cases(work)
        certify_cases(work)
        batch_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checks reject their corrupted output")
    return 0 if all(results) else 1


def experiment_cases(work: Path) -> None:
    for task in "AB":
        op = workloads._experiment_op(task, SEED, work)
        op.run()
        out = work / f"experiment-{task}-{SEED}.json"
        records = Path(f"{out}.records.tsv")
        report = json.loads(out.read_text())
        flipped = work / "flipped.tsv"
        flip_truth(records, flipped)
        expect(f"records-{task} flipped truth column",
               lambda: checks.check_records_tsv(records, report, task),
               lambda: checks.check_records_tsv(flipped, report, task), "truth")
        expect(f"report-{task} p_hat moved by 10 sigma",
               lambda: checks.check_experiment_report(report, task, SEED),
               lambda: checks.check_experiment_report(moved_p_hat(report, 10), task, SEED),
               "sigma from")
        data = bytearray(records.read_bytes())
        data[-2] ^= 1
        expect(f"rerun-{task} with one byte changed",
               lambda: op.check(None),
               lambda: (records.write_bytes(bytes(data)), op.check(None)),
               "byte-identical")
    ideal = json.dumps({"p_hat": 1.0, "n_accepted": checks.PUBLISHED["A"][2]})
    expect("ideal report with Infinity",
           lambda: checks.check_ideal_report(ideal),
           lambda: checks.check_ideal_report(ideal.replace("1.0", "Infinity")), "Infinity")


def certify_cases(work: Path) -> None:
    out = work / "certify.json"
    cli.main(["certify", "--parties", "3", "--tree", "chain", "--out", str(out)])
    report = json.loads(out.read_text())
    above = dict(report, max_fidelity=0.75, closed_form=0.75)
    expect("certify fidelity above the bound",
           lambda: checks.check_certify_report(report, 3, "chain"),
           lambda: checks.check_certify_report(above, 3, "chain"), "certified")

    opt, trace = work / "optimize.json", work / "trace.tsv"
    cli.main(["optimize", "--parties", "4", "--seed", str(SEED), "--out", str(opt),
              "--trace-out", str(trace)])
    report, text = json.loads(opt.read_text()), trace.read_text()
    bound = checks.classical_fidelity("B", 4)
    lifted = copy.deepcopy(report)
    lifted["trace"][-1] = bound * (1 + 1e-9)
    lines = text.splitlines()
    lines[-1] = f"{len(lines) - 3}\t{lifted['trace'][-1]!r}"
    expect("ascent trace above the bound",
           lambda: checks.check_optimize(report, text, 4, 20),
           lambda: checks.check_optimize(lifted, "\n".join(lines) + "\n", 4, 20), "exceeds")

    reference = checks.product_fidelities_a(5)
    fids, best = classical.exhaust_product_strategies_a(5)
    raised = fids.copy()
    raised[best + 1] = 0.5
    expect("product strategy above 1/4",
           lambda: checks.check_exhaust(fids, best, reference),
           lambda: checks.check_exhaust(raised, best, reference))

    tree = classical.CommTree.chain(3)
    protocol = classical.brute_force_bound_a(tree).protocol
    f, err = classical.fidelity_mc(protocol, tree, tasks.Task.A, 20_000,
                                   np.random.default_rng(SEED))
    over = 0.5 + 10 * math.sqrt(0.75 / 20_000)
    expect("protocol fidelity_mc above the bound",
           lambda: checks.check_mc_fidelity(f, err, 20_000, 0.5, "mc"),
           lambda: checks.check_mc_fidelity(
               over, math.sqrt((1 - over**2) / 20_000), 20_000, 0.5, "mc"), "sigma from")


def batch_cases() -> None:
    rng = np.random.default_rng(SEED)
    inputs = sampling.sample_a(5, rng, 100_000)
    answers = quantum.run_quantum_batch(tasks.Task.A, inputs, 1.0, rng)
    wrong = answers.copy()
    wrong[7] *= -1
    expect("task A ideal answer flipped",
           lambda: checks.check_a_rows(inputs, answers),
           lambda: checks.check_a_rows(inputs, wrong), "wrong on 1 rows")

    inputs = sampling.sample_b(5, rng, 100_000)
    truth = tasks.task_value_batch(tasks.Task.B, inputs)
    answers = quantum.run_quantum_batch(tasks.Task.B, inputs, 1.0, rng)
    flipped = truth.copy()
    flipped[3] *= -1
    expect("task B truth flipped",
           lambda: checks.check_b_rows(inputs, truth, answers, 1.0, "B"),
           lambda: checks.check_b_rows(inputs, flipped, answers, 1.0, "B"), "truth")


if __name__ == "__main__":
    sys.exit(main())
