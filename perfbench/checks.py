"""Correctness checks for the benchmark, computed apart from the program.

Nothing here imports ``qccp``.  Reference values are either closed forms
typed from the paper (Trojek et al., PRA 72, 050305(R), 2005) and from the
bound it quotes (Brukner et al., PRL 92, 127901, 2004), or are recomputed by
this file's own enumeration and message passing.  Stochastic checks are held
at 5 sigma; the published sigma-violation bands are deliberately not
checked, because at the preset parameters they pass only for some seeds.

Every check raises :class:`CheckFailure` with a one-line reason.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

N_PARTIES = 5
SIGMAS = 5.0
BLOCK_SIZE = 500
# published N=5 parameter sets: task -> (eta, gamma, accepted runs)
PUBLISHED = {"A": (0.452, 0.966, 6692), "B": (0.471, 0.858, 18169)}
RECORD_COLUMNS = [
    "window", "seed", "stream", "trigger_count", "accepted",
    "detected", "guessed", "answer", "truth",
]


class CheckFailure(Exception):
    """An output of the program disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def near(observed: float, expected: float, p: float, n: int, what: str) -> None:
    """``observed`` must lie within 5 binomial sigma of ``expected``."""
    sigma = math.sqrt(p * (1.0 - p) / n)
    require(
        abs(observed - expected) <= SIGMAS * sigma,
        f"{what}: {observed!r} is {abs(observed - expected) / sigma:.1f} sigma "
        f"from {expected!r} (n={n})",
    )


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def strict_json(text: str) -> dict:
    """Parse JSON that must not contain NaN or +-Infinity."""

    def reject(token):
        raise CheckFailure(f"report holds the non-JSON constant {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"report is not JSON: {exc}") from None


# --- closed forms ----------------------------------------------------------


def classical_fidelity(task: str, n: int) -> float:
    """2^(1 - ceil(N/2)) for A, (2/pi)^(N-1) for B."""
    if task == "A":
        return 2.0 ** (1 - math.ceil(n / 2))
    return (2.0 / math.pi) ** (n - 1)


def classical_success(task: str, n: int) -> float:
    return (1.0 + classical_fidelity(task, n)) / 2.0


def experiment_success(eta: float, gamma: float) -> float:
    """P = eta * gamma + (1 - eta) / 2: failed detections are fair guesses."""
    return eta * gamma + (1.0 - eta) / 2.0


# --- experiment ------------------------------------------------------------


def check_experiment_report(report: dict, task: str, seed: int) -> None:
    eta, gamma, n_target = PUBLISHED[task]
    require(report.get("schema") == "qccp-experiment-v1", "experiment schema")
    require(report["task"] == task and report["n_parties"] == N_PARTIES, "task/N")
    require(report["seed"] == seed, f"seed {report['seed']} != {seed}")
    require(report["eta"] == eta, f"eta {report['eta']} != published {eta}")
    require(abs(report["gamma"] - gamma) <= 1e-12, f"gamma {report['gamma']}")
    require(report["n_accepted"] == n_target, f"n_accepted {report['n_accepted']}")
    n, s = report["n_accepted"], report["successes"]
    require(report["p_hat"] == s / n, "p_hat != successes / n_accepted")
    p = s / n
    require(abs(report["sigma"] - math.sqrt(p * (1 - p) / n)) <= 1e-12, "Wald sigma")
    require(
        abs(report["classical_success"] - classical_success(task, N_PARTIES)) <= 1e-12,
        f"classical_success {report['classical_success']}",
    )
    predicted = experiment_success(eta, gamma)
    require(
        abs(report["predicted_success"] - predicted) <= 1e-12,
        f"predicted_success {report['predicted_success']} != {predicted}",
    )
    near(report["p_hat"], predicted, predicted, n, f"experiment {task} p_hat")
    near(n / report["n_windows"], math.exp(-1.0), math.exp(-1.0),
         report["n_windows"], f"experiment {task} acceptance")


def truth_a(digits) -> int:
    total = sum(digits)
    if total % 2:
        raise CheckFailure(f"odd digit sum in {digits}")
    return 1 if total % 4 == 0 else -1


def truth_b(phases) -> int | None:
    """Sign of cos(sum); None within 1e-9 of a tie, where no verdict is safe."""
    c = math.cos(math.fsum(phases))
    if abs(c) < 1e-9:
        return None
    return 1 if c > 0.0 else -1


def _number(text: str) -> float:
    # the histogram writer may emit numpy scalar reprs such as np.float64(0.01)
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def check_records_tsv(path: Path, report: dict, task: str) -> list[bool]:
    """Check every row of a records log; returns accepted-run outcomes in order."""
    eta, gamma, _ = PUBLISHED[task]
    header = RECORD_COLUMNS + [f"input_{k + 1}" for k in range(N_PARTIES)]
    outcomes: list[bool] = []
    rows = zero_triggers = detected = detected_ok = guessed = guessed_ok = 0
    with open(path) as fh:
        require(fh.readline() == "# schema: qccp-records-v1\n", "records schema")
        require(fh.readline().rstrip("\n").split("\t") == header, "records header")
        for line in fh:
            f = line.rstrip("\n").split("\t")
            require(len(f) == len(header), f"row {rows}: {len(f)} fields")
            window, seed, stream, tc, acc, det, gss, ans, tru = (int(v) for v in f[:9])
            require(window == rows and seed == report["seed"] and stream == 0,
                    f"row {rows}: window/seed/stream")
            require(tc >= 0 and acc == (tc == 1), f"row {rows}: accepted vs triggers")
            require(det in (0, 1) and gss == 1 - det and det <= acc,
                    f"row {rows}: detected/guessed")
            require(ans in (-1, 1), f"row {rows}: answer {ans}")
            if task == "A":
                digits = [int(v) for v in f[9:]]
                require(all(0 <= d <= 3 for d in digits), f"row {rows}: digits")
                want = truth_a(digits)
            else:
                phases = [float(v) for v in f[9:]]
                require(all(0.0 <= v < 2.0 * math.pi for v in phases),
                        f"row {rows}: phases")
                want = truth_b(phases)
            require(want is None or tru == want,
                    f"row {rows}: truth {tru} but inputs give {want}")
            rows += 1
            zero_triggers += tc == 0
            if acc:
                outcomes.append(ans == tru)
                if det:
                    detected += 1
                    detected_ok += ans == tru
                else:
                    guessed += 1
                    guessed_ok += ans == tru
    n = len(outcomes)
    require(rows == report["n_windows"], f"{rows} rows, report says {report['n_windows']}")
    require(n == report["n_accepted"], f"{n} accepted rows")
    require(sum(outcomes) == report["successes"], "successes != correct accepted rows")
    q = math.exp(-1.0)
    near(zero_triggers / rows, q, q, rows, f"{task} zero-trigger fraction")
    near(detected / n, eta, eta, n, f"{task} detection fraction")
    near(detected_ok / detected, gamma, gamma, detected, f"{task} success when detected")
    near(guessed_ok / guessed, 0.5, 0.5, guessed, f"{task} success of guesses")
    return outcomes


def check_histogram_tsv(path: Path, outcomes: list[bool]) -> None:
    """Bin counts must equal those of block fractions recomputed from the log."""
    lines = Path(path).read_text().splitlines()
    require(lines[:2] == ["# schema: qccp-histogram-v1", "bin_left\tbin_right\tcount"],
            "histogram header")
    rows = [line.split("\t") for line in lines[2:]]
    edges = [_number(r[0]) for r in rows] + [_number(rows[-1][1])]
    counts = [int(r[2]) for r in rows]
    require(edges[0] == 0.0 and abs(edges[-1] - 1.0) <= 1e-12, "histogram range")
    n_blocks = len(outcomes) // BLOCK_SIZE
    fractions = [
        sum(outcomes[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE]) / BLOCK_SIZE
        for b in range(n_blocks)
    ]
    want, _ = np.histogram(fractions, bins=np.array(edges))
    require(counts == want.tolist(), "histogram counts differ from the log's blocks")


def check_ideal_report(text: str) -> None:
    """The ideal device (eta = 1, V = 1) answers every accepted run correctly."""
    report = strict_json(text)
    require(report.get("p_hat") == 1.0, f"ideal p_hat {report.get('p_hat')}")
    require(report.get("n_accepted") == PUBLISHED["A"][2], "ideal n_accepted")


# --- certification ---------------------------------------------------------


def tree_parents(n: int, shape: str) -> list[int]:
    """Recipient of each sender's bit; the root is party n-1."""
    return [i + 1 for i in range(n - 1)] if shape == "chain" else [n - 1] * (n - 1)


def even_sum_tuples(n: int) -> list[tuple[int, ...]]:
    return [t for t in itertools.product(range(4), repeat=n) if sum(t) % 2 == 0]


def run_tables(tables, parents: list[int], digits) -> int:
    """Message passing over a tree: every party speaks after all its children.

    tables[k][digit][received] is party k's +-1 output; ``received`` packs the
    children's bits in ascending party order, bit j set when child j sent -1.
    """
    n = len(tables)
    children = [[c for c in range(n - 1) if parents[c] == k] for k in range(n)]

    def message(k: int) -> int:
        received = sum((message(c) == -1) << j for j, c in enumerate(children[k]))
        return tables[k][digits[k]][received]

    return message(n - 1)


def nominal_search_space(n: int, shape: str) -> int:
    parents = tree_parents(n, shape)
    return math.prod(2 ** (4 * 2 ** parents.count(k)) for k in range(n))


def check_certify_report(report: dict, n: int, shape: str) -> None:
    want = classical_fidelity("A", n)
    require(report.get("schema") == "qccp-certify-v1", "certify schema")
    require(report["n_parties"] == n and report["tree"] == shape, "certify tree")
    require(report["max_fidelity"] == want, f"certified {report['max_fidelity']} != {want}")
    require(report["closed_form"] == want and report["matches_closed_form"] is True,
            "closed form flag")
    require(report["search_space"] == nominal_search_space(n, shape),
            f"search space {report['search_space']}")
    tuples = even_sum_tuples(n)
    parents = tree_parents(n, shape)
    score = sum(
        truth_a(t) * run_tables(report["argmax_tables"], parents, t) for t in tuples
    )
    require(abs(score) / len(tuples) == want,
            f"argmax protocol reaches {abs(score)}/{len(tuples)}, not {want}")


def product_fidelities_a(n: int) -> np.ndarray:
    """Exact fidelity of all 4^n product strategies, party k at index bits 2k, 2k+1.

    Party k answers y_k * a_k(x_k) with x_k = X_k mod 2, y_k = +1 for X_k < 2,
    and a_k(x) = +1 or -1 as bit (2k + x) of the index is 0 or 1.
    """
    tuples = np.array(even_sum_tuples(n))
    truth = np.where(tuples.sum(axis=1) % 4 == 0, 1, -1)
    y = np.where(tuples < 2, 1, -1).prod(axis=1)
    index = np.arange(4**n)[:, None]
    score = np.tile(truth * y, (4**n, 1))
    for k in range(n):
        score *= 1 - 2 * ((index >> (2 * k + tuples[:, k] % 2)[None, :]) & 1)
    return np.abs(score.sum(axis=1)) / len(tuples)


def check_exhaust(fids: np.ndarray, best: int, reference: np.ndarray) -> None:
    require(fids.shape == reference.shape, f"{fids.shape} strategies")
    require(np.array_equal(fids, reference), "product fidelities differ from enumeration")
    top = classical_fidelity("A", N_PARTIES)
    require(float(fids.max()) <= top, f"a product strategy exceeds {top}")
    require(fids[best] == top and best == int(np.argmax(reference)), "argmax index")


def fidelity_b_cells(signs) -> float:
    """Exact task-B fidelity of piecewise-constant signs on M cells of [0, pi)."""
    signs = np.asarray(signs, dtype=float)
    n, m = signs.shape
    edges = np.exp(1j * np.arange(m + 1) * math.pi / m)
    z = signs @ ((edges[1:] - edges[:-1]) / 1j)
    return abs(complex(np.prod(z)).real) / (2.0 * math.pi ** (n - 1))


def check_optimize(report: dict, trace_text: str, n: int, restarts: int) -> None:
    bound = classical_fidelity("B", n)
    trace = report["trace"]
    require(report.get("schema") == "qccp-optimize-v1" and report["n_parties"] == n,
            "optimize schema")
    lines = trace_text.splitlines()
    require(lines[:2] == ["# schema: qccp-trace-v1", "sweep\tfidelity"], "trace header")
    require([float(line.split("\t")[1]) for line in lines[2:]] == trace,
            "trace file differs from report")
    require(all(b >= a - 1e-12 for a, b in zip(trace, trace[1:])), "trace not monotone")
    require(max(trace) <= bound + 1e-12, f"trace exceeds {bound!r}")
    finals = report["restart_fidelities"]
    require(len(finals) == restarts and report["best_fidelity"] == max(finals) == trace[-1],
            "best fidelity is not the best restart")
    own = fidelity_b_cells(report["best_strategy"])
    require(abs(own - report["best_fidelity"]) <= 1e-12,
            f"best strategy evaluates to {own!r}")
    require(abs(report["target_fidelity"] - bound) <= 1e-15, "target fidelity")
    if n == 4:
        require(abs(report["best_fidelity"] - bound) <= math.ulp(bound),
                f"N=4 ascent {report['best_fidelity']!r} misses {bound!r}")


def check_mc_fidelity(f: float, stderr: float, n: int, expected: float, what: str) -> None:
    require(abs(stderr - math.sqrt(max(0.0, 1.0 - f * f) / n)) <= 1e-12, f"{what} stderr")
    sigma = math.sqrt((1.0 - expected**2) / n)
    require(abs(f - expected) <= SIGMAS * sigma,
            f"{what}: {f!r} is {abs(f - expected) / sigma:.1f} sigma from {expected!r}")


# --- batch Monte Carlo -----------------------------------------------------


def check_b_rows(inputs: np.ndarray, truth: np.ndarray, answers: np.ndarray,
                 visibility: float, what: str) -> None:
    rows = len(inputs)
    require(inputs.shape == (rows, N_PARTIES), f"{what}: shape {inputs.shape}")
    require(bool(((inputs >= 0.0) & (inputs < 2.0 * math.pi)).all()), f"{what}: range")
    c = np.cos(inputs.sum(axis=1))
    sure = np.abs(c) >= 1e-9
    require(np.array_equal(truth[sure], np.where(c[sure] > 0, 1, -1)),
            f"{what}: truth differs from sign(cos(sum))")
    # inputs drawn with density ~ |cos(sum)| have E|cos(sum)| = pi/4
    spread = float(np.abs(c).std())
    mean = float(np.abs(c).mean())
    require(abs(mean - math.pi / 4) <= SIGMAS * spread / math.sqrt(rows),
            f"{what}: E|cos(sum)| = {mean!r}, density is off")
    p = (1.0 + visibility * math.pi / 4.0) / 2.0
    near(float(np.mean(answers == truth)), p, p, rows, f"{what} success")


def check_a_rows(inputs: np.ndarray, answers: np.ndarray) -> None:
    require(inputs.shape[1] == N_PARTIES, "task A shape")
    require(bool(((inputs >= 0) & (inputs <= 3)).all()), "task A digits")
    totals = inputs.sum(axis=1)
    require(not (totals % 2).any(), "task A odd sums")
    truth = np.where(totals % 4 == 0, 1, -1)
    wrong = int((answers != truth).sum())
    require(wrong == 0, f"ideal task A answers wrong on {wrong} rows")
    rows = len(inputs)
    for k in range(N_PARTIES):
        share = float(np.mean(inputs[:, k] == 0))
        near(share, 0.25, 0.25, rows, f"task A digit 0 share of party {k}")
