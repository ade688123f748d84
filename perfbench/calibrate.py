#!/usr/bin/env python3
"""The speed of the host, from a fixed piece of numpy/scipy work.

    python3 perfbench/calibrate.py < seconds-per-line

For each number of seconds read from standard input, the kernel runs back
to back for that long (at least once), and one line with the time of each
run is written to standard output.  ``run.py`` keeps one of these processes
beside a timed run and calibrates after every set-up and op.

Other tenants of a shared host slow every process on it by 20-60 % for
minutes at a time, which moves a run's median op time by as much.  The
kernel runs interleaved with the ops, so its median time sees the same load,
and the ratio of the two medians much less: over 30-second windows of a
loaded 2-vCPU KVM guest (Intel Xeon), 0.06-0.09 instead of 0.17-0.24
(interquartile range over median).  The kernel calls nothing of
tfmultiscale, so a change to the program moves the ratio one for one.  It
does the two kinds of work the workloads spend their time on: sparse LU of
2-D stiffness-like matrices (the patch solves of the basis builds) and, for
a dense n = 400 system, triangular solves and projections (the time steps
of the reduced schemes).  It runs in its own process so that its memory
stays out of the run's peak RSS and its heap out of the program's.
"""

import sys
import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def laplacian(n: int):
    e = np.ones(n)
    t = sp.diags([-e[:-1], 2 * e, -e[:-1]], [-1, 0, 1])
    return (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()


def inputs() -> dict:
    rng = np.random.default_rng(0)
    d = rng.standard_normal((400, 400))
    return {"sparse": [laplacian(60)] * 2 + [laplacian(30)] * 5,
            "lu": sla.lu_factor(d @ d.T + 400 * np.eye(400)),
            "basis": rng.standard_normal((2401, 400)),
            "load": rng.standard_normal(2401),
            "history": rng.standard_normal((600, 400)),
            "weights": rng.standard_normal(600)}


def kernel(x: dict) -> None:
    for a in x["sparse"]:
        spla.splu(a)
    for _ in range(50):
        sla.lu_solve(x["lu"], x["basis"].T @ x["load"] - x["weights"] @ x["history"])


def main() -> int:
    x = inputs()
    for line in sys.stdin:
        t_end = time.perf_counter() + float(line)
        samples = []
        while True:
            t0 = time.perf_counter()
            kernel(x)
            samples.append(time.perf_counter() - t0)
            if t0 + samples[-1] >= t_end:
                break
        print(" ".join(map(repr, samples)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
