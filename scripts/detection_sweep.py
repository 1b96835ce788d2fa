#!/usr/bin/env python3
"""Sweep the heralding efficiency and compare simulation to the closed form.

For each eta the simulated success probability of the full window/detection
model is printed next to eta*gamma + (1-eta)/2, together with where the
classical bound sits.  Useful for judging how much detection efficiency a
beyond-classical demonstration needs.

Usage: python scripts/detection_sweep.py --task B --n-target 5000 --seed 7
"""

import argparse
from dataclasses import replace

from qccp import (
    PRESETS,
    RandomStream,
    Task,
    classical_bound,
    gamma_from_visibility,
    predicted_success,
    simulate_experiment,
    success_stats,
)
from qccp.cli import non_negative_int, positive_int, unit_float


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", choices=["A", "B"], default="B")
    parser.add_argument("--parties", type=positive_int, default=5)
    parser.add_argument("--visibility", type=unit_float, default=0.95)
    parser.add_argument("--n-target", type=positive_int, default=5000)
    parser.add_argument("--seed", type=non_negative_int, default=7)
    parser.add_argument("--steps", type=positive_int, default=9)
    args = parser.parse_args()

    task = Task(args.task)
    bound = classical_bound(task, args.parties).success
    gamma = gamma_from_visibility(task, args.visibility)
    print(f"# task {task.value}, N={args.parties}, V={args.visibility}, "
          f"gamma={gamma:.4f}, classical bound {bound:.4f}")
    print("eta\tp_simulated\tsigma\tp_predicted\tsigma_over_bound")
    for i in range(args.steps):
        eta = (i + 1) / args.steps
        params = replace(
            PRESETS[task.value], n_parties=args.parties, eta=eta,
            visibility=args.visibility, n_target=args.n_target,
        )
        records = simulate_experiment(params, RandomStream(args.seed, i).generator())
        stats = success_stats(records)
        predicted = predicted_success(eta, gamma)
        excess = (stats.p_hat - bound) / stats.sigma if stats.sigma > 0 else float("inf")
        print(f"{eta:.3f}\t{stats.p_hat:.4f}\t{stats.sigma:.4f}\t{predicted:.4f}\t{excess:+.1f}")


if __name__ == "__main__":
    main()
