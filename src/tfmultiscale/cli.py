"""Command line entry points: solve, stability, experiment.

``stability`` is ``solve`` with no schemes: it builds the two coarse spaces,
writes ``stability_report.txt`` and ``kappa.txt``, and prints the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import os

from .harness import ExperimentConfig, experiment_config, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfms",
        description="Partially explicit multiscale solvers for "
                    "time-fractional diffusion in high-contrast media")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("solve", "run all configured schemes"),
                        ("stability", "emit the stability report")):
        sub.add_parser(name, help=help_).add_argument(
            "--config", required=True, help="JSON experiment config")

    p_exp = sub.add_parser("experiment", help="run a bundled experiment")
    p_exp.add_argument("number", type=int, choices=(1, 2))
    p_exp.add_argument("--alpha", type=float, default=0.9)
    p_exp.add_argument("--out", default="out")

    args = parser.parse_args(argv)

    try:
        if args.command == "experiment":
            cfg = experiment_config(args.number, alpha=args.alpha, out_dir=args.out)
        else:
            cfg = ExperimentConfig.from_json(args.config)
    except ValueError as exc:
        parser.error(str(exc))

    if args.command == "stability":
        result = run_experiment(dataclasses.replace(cfg, schemes=()))
        print(result.report.to_text(), end="")
        print(f"written to {os.path.join(cfg.out_dir, 'stability_report.txt')}")
        return 0

    result = run_experiment(cfg)
    for name, traj in result.trajectories.items():
        status = f"diverged at step {traj.diverged_step}" if traj.diverged else "ok"
        print(f"{name}: {status}")
    print(f"artifacts written to {cfg.out_dir}")
    return 0
