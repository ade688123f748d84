"""The benchmark's workloads.

Each workload has ``setup(gseed) -> state`` and ``op(state, out_dir) ->
fingerprint``.  An op calls the program only through its public entry points
and returns the numbers its correctness check compares with the references
recorded in ``references.json``.  ``gseed`` selects one of ``N_GEOMETRIES``
seeded inputs; every one of them has a recorded reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os

import numpy as np

# Modules, not functions, are imported, so that the tracer's wrappers are
# what these calls reach.
from tfmultiscale import (assembly, cli, fractional, harness, schemes, spaces,
                          stability)
from tfmultiscale import grid as grids

N_GEOMETRIES = 10

# exp1: experiment 1 (bundled raster, smooth forcing, alpha 0.9, J = 1,
# 4 layers) at desk scale: T = 0.001, i.e. 50 coarse and 250 fine steps
# instead of 500 and 2,500.  Final errors stay within 1.5x of the full run's.
# `exp1-full` is the original.
EXP1_DESK = {"T": 0.001}

# contrast-sweep: the paper's robustness result on a 4x4 coarse grid with
# 6x6 fine cells per element and 2 oversampling layers: an op of about a
# second, so that a run holds a few dozen.
SWEEP_GRID = (4, 6)
SWEEP_LAYERS = 2
SWEEP_CONTRASTS = (1e2, 1e4, 1e6)
SWEEP_ALPHA = 0.9

# reduced-sweep: online phase on n = 400 dense columns (10x10 coarse
# elements, L = 3 and J = 1 per element).  The fine grid is 50x50 rather than
# 100x100 so that three set-ups (each a basis build) fit in one run.
REDUCED_GRID = (10, 5)
REDUCED_CONTRAST = 1e5
REDUCED_L, REDUCED_J, REDUCED_LAYERS = 3, 1, spaces.DEFAULT_LAYERS
REDUCED_DT = 2e-5
REDUCED_STEPS = 600
# scem is predicted (and observed) unstable at alpha = 0.5.
REDUCED_ALPHAS = (0.9, 0.5)
REDUCED_RUNS = (("cem", "implicit", "basis1"), ("tildeU", "implicit", "both"),
                ("scem", "partial", "both"))


# --------------------------------------------------------------- exp1
def exp1_setup(gseed):
    return {"desk": True}


def exp1_full_setup(gseed):
    return {"desk": False}


def exp1_op(state, out_dir):
    if not state["desk"]:
        argv = ["experiment", "1", "--alpha", "0.9", "--out", out_dir]
    else:
        cfg = harness.experiment_config(1, alpha=0.9, out_dir=out_dir)
        cfg = dataclasses.replace(cfg, **EXP1_DESK)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "config.json")
        cfg.to_json(path)
        argv = ["solve", "--config", path]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"tfms exited with {rc}")
    return exp1_fingerprint(buf.getvalue(), out_dir)


def exp1_fingerprint(stdout: str, out_dir: str) -> dict:
    """Final errors per scheme, stability quantities and verdicts, read from
    the run's printed verdicts and its artifacts."""
    fp = {}
    for line in stdout.splitlines():
        name, sep, status = line.partition(": ")
        if sep and name in ("fine", "cem", "tildeU", "scem"):
            fp[f"{name}.diverged"] = status != "ok"
    with open(os.path.join(out_dir, "errors.csv")) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    header, last = rows[0], rows[-1]
    for col, value in zip(header[2:], last[2:]):
        fp[col] = float(value)
    with open(os.path.join(out_dir, "stability_report.txt")) as fh:
        report = dict(line.strip().split(" = ") for line in fh if " = " in line)
    for key in ("dt_max_partial", "lambda_max_v2", "gamma"):
        fp[key] = float(report[key])
    return fp


# ------------------------------------------------------ contrast-sweep
def sweep_setup(gseed):
    grid = grids.build_grids(*SWEEP_GRID)
    n = grid.n_fine
    return {"grid": grid, "mask": harness.channel_geometry(n, n, seed=gseed)}


def sweep_op(state, out_dir):
    rows = stability.contrast_sweep(state["grid"], state["mask"],
                                    SWEEP_CONTRASTS, SWEEP_ALPHA,
                                    layers=SWEEP_LAYERS)
    os.makedirs(out_dir, exist_ok=True)
    stability.sweep_to_csv(rows, os.path.join(out_dir, "sweep.csv"))
    return {f"{row['contrast']:g}.{key}": float(row[key]) for row in rows
            for key in ("lambda_full", "lambda_v2", "gamma", "dt_partial")}


# ------------------------------------------------------- reduced-sweep
def reduced_setup(gseed):
    grid = grids.build_grids(*REDUCED_GRID)
    n = grid.n_fine
    field_ = harness.gen_field("channels", nx=n, ny=n,
                               contrast=REDUCED_CONTRAST, seed=gseed)
    A = assembly.assemble(grid, field_, "stiffness")
    M = assembly.assemble(grid, None, "mass")
    pou = assembly.msfem_partition(grid, field_)
    kt = assembly.kappa_tilde(field_, pou)
    aux1 = spaces.aux_spectral(grid, field_, kt, REDUCED_L)
    basis1 = spaces.cem_basis(grid, field_, aux1, REDUCED_LAYERS)
    aux2 = spaces.v2_aux_spectral(grid, field_, aux1, REDUCED_J)
    basis2 = spaces.v2_basis(grid, field_, aux1, aux2, REDUCED_LAYERS)
    return {"grid": grid, "A": A, "M": M, "forcing": harness.gen_forcing("smooth"),
            "bases": {"basis1": basis1, "both": spaces.combine(basis1, basis2)}}


def reduced_op(state, out_dir):
    grid, forcing = state["grid"], state["forcing"]
    os.makedirs(out_dir, exist_ok=True)
    fp = {}
    for alpha in REDUCED_ALPHAS:
        kernel = fractional.make_kernel(alpha, REDUCED_DT, REDUCED_STEPS)
        for space, scheme, which in REDUCED_RUNS:
            basis = state["bases"][which]
            sys_r = schemes.reduce(state["A"], state["M"], basis)
            R = basis.R

            def load(k, R=R):
                return R.T @ assembly.load_vector(grid, forcing, (k + 1) * REDUCED_DT)

            traj = schemes.run_scheme(scheme, sys_r, kernel, np.zeros(basis.n),
                                      load, space=space)
            key = f"{alpha:g}.{space}"
            fp[f"{key}.diverged"] = traj.diverged
            fp[f"{key}.diverged_step"] = traj.diverged_step
            if not traj.diverged:
                final = np.zeros(grid.n_nodes)
                final[grid.interior_nodes()] = R @ traj.states[-1]
                nn = grid.n_nodes_side
                assembly.write_raster(os.path.join(out_dir, f"final_{key}.txt"),
                                      nn, nn, final)
                fp[f"{key}.final_norm"] = float(np.linalg.norm(traj.states[-1]))
    return fp


WORKLOADS = {
    "exp1": (exp1_setup, exp1_op),
    "contrast-sweep": (sweep_setup, sweep_op),
    "reduced-sweep": (reduced_setup, reduced_op),
    # Not in BENCHMARK.json: `tfms experiment 1 --alpha 0.9` itself, for the
    # committed full-scale baseline (one op takes about 75 s).
    "exp1-full": (exp1_full_setup, exp1_op),
}


def geometry_seed(workload: str, seed: int) -> int:
    """exp1 reads the bundled raster, so its input does not depend on the seed."""
    return 0 if workload.startswith("exp1") else seed % N_GEOMETRIES

