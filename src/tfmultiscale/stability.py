"""Quantitative stability machinery: generalized eigenvalue bounds, the
subspace angle between the two coarse spaces, maximal stable time steps for
the explicit and partially explicit schemes, energy-estimate audits, and the
contrast sweep.

The report is computed from the reduced system of the combined coarse space,
which :func:`harness.run_experiment` and :func:`contrast_sweep` build once
(:func:`spaces.build_spaces`, then :func:`schemes.reduce`);
``run_experiment`` shares it with the time steppers.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import assembly, spaces
from .fractional import L1Kernel
from .linalg import SolveError, gamma_fn
from .schemes import ReducedSystem, Trajectory, reduce


@dataclass
class StabilityReport:
    lambda_max_full: float
    lambda_max_v2: float
    gamma: float
    gamma_effective: float
    min_ratio: float
    dt_max_explicit: float
    dt_max_partial: float
    alpha: float

    def to_text(self) -> str:
        buf = io.StringIO()
        for k, v in vars(self).items():
            buf.write(f"{k} = {v:.12g}\n")
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())


def lambda_max(A, M) -> float:
    """Largest lambda of the dense pencil A v = lambda M v (M SPD)."""
    n = len(A)
    return float(sla.eigh(A, M, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0])


def estimate_gamma(M11, M12, M22) -> tuple:
    """Minimal L2 angle between the block subspaces, verified directly;
    returns ``(gamma, min_ratio, gamma_effective)``.

    gamma is the cosine of the minimal angle, the largest singular value of
    L11^{-1} M12 L22^{-T}.  min_ratio is the directly verified minimum of
    ||u1+u2||^2 / ||u2||^2, the smallest eigenvalue of the Schur complement
    pencil, which is the actual contract.  gamma_effective is the smallest
    gamma for which the splitting's first condition
    ||u1+u2||^2 >= 2(1-gamma^2)||u2||^2 holds (min_ratio = 2(1-gamma_eff^2)).
    """
    M11 = np.asarray(M11, dtype=float)
    M22 = np.asarray(M22, dtype=float)
    M12 = np.asarray(M12, dtype=float)
    try:
        L1 = sla.cholesky(M11, lower=True)
        L2 = sla.cholesky(M22, lower=True)
    except sla.LinAlgError as exc:
        raise SolveError("diagonal mass block is singular") from exc
    X = sla.solve_triangular(L1, M12, lower=True)
    X = sla.solve_triangular(L2, X.T, lower=True).T
    gamma = float(np.linalg.svd(X, compute_uv=False)[0]) if X.size else 0.0
    gamma = min(gamma, 1.0)

    # Direct verification: min over u2 of ||u1 + u2||^2 / ||u2||^2 equals the
    # smallest eigenvalue of (M22 - M21 M11^{-1} M12) w = theta M22 w.
    Schur = M22 - M12.T @ sla.cho_solve((L1, True), M12)
    theta = float(sla.eigh(0.5 * (Schur + Schur.T), M22, eigvals_only=True,
                           subset_by_index=(0, 0))[0])
    theta = max(theta, 0.0)
    gamma_eff = float(np.sqrt(min(max(1.0 - theta / 2.0, 0.0), 1.0)))
    return gamma, theta, gamma_eff


def dt_max_explicit(alpha: float, lambda_max_full: float) -> float:
    """Largest dt with alpha0 * lambda <= 1/2 for the explicit scheme."""
    if lambda_max_full < 0:
        raise ValueError("lambda must be nonnegative")
    if lambda_max_full == 0:
        return float("inf")
    return (1.0 / (2.0 * gamma_fn(2.0 - alpha) * lambda_max_full)) ** (1.0 / alpha)


def dt_max_partial(alpha: float, gamma: float, lambda_max_v2: float) -> float:
    """Largest dt with alpha0 * lambda <= 1 - gamma^2 for the splitting."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0,1), got {gamma}")
    if lambda_max_v2 < 0:
        raise ValueError("lambda must be nonnegative")
    if lambda_max_v2 == 0:
        return float("inf")
    return ((1.0 - gamma * gamma)
            / (gamma_fn(2.0 - alpha) * lambda_max_v2)) ** (1.0 / alpha)


@dataclass
class EnergyAudit:
    lhs: float          # ||u^N||_a^2
    rhs: float          # ||u^0||_a^2 + alpha0 * sum ||f^{k+1}||^2
    slack: float


def energy_audit(traj: Trajectory, A, f_norms_sq, kernel: L1Kernel) -> EnergyAudit:
    """Check ||u^N||_a^2 <= ||u^0||_a^2 + alpha0 sum_k ||f^{k+1}||^2.

    ``f_norms_sq`` holds the squared L2 norms of the forcing at T_1..T_N in
    the space of the trajectory.  Negative slack is a reported finding.
    """
    uN = traj.states[-1]
    u0 = traj.states[0]
    lhs = float(uN @ (A @ uN))
    rhs = float(u0 @ (A @ u0)) + kernel.alpha0 * float(np.sum(f_norms_sq))
    return EnergyAudit(lhs=lhs, rhs=rhs, slack=rhs - lhs)


def build_report(sysc: ReducedSystem, alpha: float) -> StabilityReport:
    """Evaluate every stability quantity on the reduced combined system.

    ``sysc`` is the (dense) :func:`schemes.reduce` of the combined coarse
    space V_H (the space all three schemes act on), V_{H,1} columns first.
    lambda_max_full is taken over all of it; lambda_max_v2 over the second
    block alone.
    """
    n1, A, M = sysc.n1, sysc.A, sysc.M
    lam_full = lambda_max(A, M)
    lam_v2 = lambda_max(A[n1:, n1:], M[n1:, n1:])
    gamma, min_ratio, gamma_eff = estimate_gamma(M[:n1, :n1], M[:n1, n1:],
                                                 M[n1:, n1:])
    return StabilityReport(
        lambda_max_full=lam_full, lambda_max_v2=lam_v2, gamma=gamma,
        gamma_effective=gamma_eff, min_ratio=min_ratio,
        dt_max_explicit=dt_max_explicit(alpha, lam_full),
        dt_max_partial=dt_max_partial(alpha, gamma, lam_v2),
        alpha=alpha)


def contrast_sweep(grid, geometry_mask: np.ndarray, contrasts, alpha: float,
                   L: int = spaces.DEFAULT_NBASIS, J: int = spaces.DEFAULT_NBASIS,
                   layers: int = spaces.DEFAULT_LAYERS) -> list:
    """Stability quantities per contrast on a fixed high-kappa geometry.

    Returns a list of dict rows with keys contrast, lambda_full, lambda_v2,
    gamma, dt_exp, dt_partial (the CSV schema of the sweep output).
    """
    contrasts = [float(c) for c in contrasts]
    if not all(math.isfinite(c) and c > 0 for c in contrasts):
        raise ValueError(f"contrasts must be finite and positive, got {contrasts}")
    mask = np.asarray(geometry_mask, dtype=bool).ravel()
    rows = []
    for c in contrasts:
        kappa = np.where(mask, c, 1.0)
        cs = spaces.build_spaces(grid, assembly.PermeabilityField(values=kappa),
                                 L, J, layers)
        rep = build_report(reduce(cs.A, cs.M, cs.combined), alpha)
        rows.append({"contrast": c,
                     "lambda_full": rep.lambda_max_full,
                     "lambda_v2": rep.lambda_max_v2,
                     "gamma": rep.gamma,
                     "dt_exp": rep.dt_max_explicit,
                     "dt_partial": rep.dt_max_partial})
    return rows


def sweep_to_csv(rows, path) -> None:
    cols = ["contrast", "lambda_full", "lambda_v2", "gamma", "dt_exp", "dt_partial"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(f"{row[c]:.12g}" for c in cols) + "\n")
