"""L1 discretization of the Caputo derivative: weights, the scheme constant
alpha0 = Gamma(2-alpha) * dt^alpha, and the history right-hand side shared by
all three time steppers.  The discrete derivative at T_{k+1} is
(u^{k+1} - history_rhs(kernel, u^0..u^k)) / alpha0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import gamma_fn


@dataclass(frozen=True)
class L1Kernel:
    """Fractional-memory kernel for N steps of size dt at order alpha.

    b[j] = (j+1)^(1-alpha) - j^(1-alpha), available for j <= N+1 so the
    telescoped history weights at the final step are in range, and the
    difference table d[j] = b[j] - b[j+1] (j <= N) they are read from.
    """

    alpha: float
    dt: float
    steps: int
    b: np.ndarray
    alpha0: float
    d: np.ndarray

    def weights(self, k, j) -> np.ndarray:
        """The weight of u^j in the history term at step k, for index arrays
        broadcast together (0 <= j <= k <= N): b_k at j = 0, else d_{k-j};
        over j = 0..k they sum to 1 by telescoping."""
        return np.where(j == 0, self.b[k], self.d[k - j])


def make_kernel(alpha: float, dt: float, steps: int) -> L1Kernel:
    """Build the L1 kernel; rejects alpha outside (0,1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    j = np.arange(steps + 2, dtype=float)
    b = (j + 1) ** (1.0 - alpha) - j ** (1.0 - alpha)
    alpha0 = gamma_fn(2.0 - alpha) * dt ** alpha
    return L1Kernel(alpha=alpha, dt=dt, steps=steps, b=b, alpha0=alpha0,
                    d=b[:-1] - b[1:])


def history_rhs(kernel: L1Kernel, history, start: int = 0,
                past=None) -> np.ndarray:
    """Telescoped history term w = (1-b_1)u^k + ... + b_k u^0 at step k.

    ``history`` holds u^start..u^k as the rows of a 2-D array, and ``past``
    the sum of the terms of u^0..u^(start-1) (by default, none).
    """
    H = np.asarray(history, dtype=float)
    if H.shape[0] == 0:
        raise ValueError("history is empty")
    k = start + H.shape[0] - 1
    if k > kernel.steps:
        raise ValueError(f"step index {k} out of range")
    w = kernel.weights(k, np.arange(start, k + 1)) @ H
    return w if past is None else past + w
