"""Command line entry points: solve, stability, experiment."""

from __future__ import annotations

import argparse
import os

from . import spaces, stability
from .harness import (ExperimentConfig, _field_from_config, experiment_config,
                      run_experiment)
from .grid import build_grids
from .schemes import reduce


def _add_config_arg(p):
    p.add_argument("--config", required=True, help="JSON experiment config")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfms",
        description="Partially explicit multiscale solvers for "
                    "time-fractional diffusion in high-contrast media")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run all configured schemes")
    _add_config_arg(p_solve)

    p_stab = sub.add_parser("stability", help="emit the stability report")
    _add_config_arg(p_stab)

    p_exp = sub.add_parser("experiment", help="run a bundled experiment")
    p_exp.add_argument("number", type=int, choices=(1, 2))
    p_exp.add_argument("--alpha", type=float, default=0.9)
    p_exp.add_argument("--out", default="out")

    args = parser.parse_args(argv)

    if args.command == "experiment":
        cfg = experiment_config(args.number, alpha=args.alpha, out_dir=args.out)
    else:
        cfg = ExperimentConfig.from_json(args.config)

    if args.command in ("solve", "experiment"):
        result = run_experiment(cfg)
        for name, traj in result.trajectories.items():
            status = f"diverged at step {traj.diverged_step}" if traj.diverged else "ok"
            print(f"{name}: {status}")
        print(f"artifacts written to {cfg.out_dir}")
        return 0

    grid = build_grids(cfg.coarse_n, cfg.refine)
    field_ = _field_from_config(cfg)

    cs = spaces.build_spaces(grid, field_, cfg.L, cfg.J, cfg.layers)

    rep = stability.build_report(reduce(cs.A, cs.M, cs.combined), cfg.alpha)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "stability_report.txt")
    rep.save(path)
    print(rep.to_text(), end="")
    print(f"written to {path}")
    return 0
