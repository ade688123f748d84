"""Command line entry points: solve, basis, stability, experiment."""

from __future__ import annotations

import argparse
import os

from . import assembly, spaces, stability
from .harness import (ExperimentConfig, _field_from_config, experiment_config,
                      run_experiment)
from .grid import build_grids


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

    p_basis = sub.add_parser("basis", help="construct and cache the coarse bases")
    _add_config_arg(p_basis)
    p_basis.add_argument("--out", required=True, help="basis cache file (.npz)")

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

    if args.command == "basis":
        pou = assembly.msfem_partition(grid, field_)
        kt = assembly.kappa_tilde(field_, pou)
        aux1 = spaces.aux_spectral(grid, field_, kt, cfg.L)
        basis1 = spaces.cem_basis(grid, field_, aux1, cfg.layers)
        aux2 = spaces.v2_aux_spectral(grid, field_, aux1, cfg.J)
        basis2 = spaces.v2_basis(grid, field_, aux1, aux2, cfg.layers)
        both = spaces.combine(basis1, basis2)
        spaces.save_basis(args.out, both, grid, field_, L=cfg.L, J=cfg.J,
                          layers=cfg.layers)
        print(f"cached {both.n} basis columns to {args.out}")
        return 0

    if args.command == "stability":
        rep = stability.build_report(grid, field_, cfg.alpha, L=cfg.L,
                                     J=cfg.J, layers=cfg.layers)
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "stability_report.txt")
        rep.save(path)
        print(rep.to_text(), end="")
        print(f"written to {path}")
        return 0

    return 1
