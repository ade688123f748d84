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
    telescoped history weights at the final step are in range.
    """

    alpha: float
    dt: float
    steps: int
    b: np.ndarray
    alpha0: float

    def history_weights(self, k: int) -> np.ndarray:
        """Weights w such that sum_j b_{k-j}(u^{j+1}-u^j) = u^{k+1} - w . u.

        Returns the length-(k+1) coefficients of u^0..u^k: w_0 = b_k and
        w_j = b_{k-j} - b_{k-j+1} for j >= 1; they sum to 1 by telescoping.
        """
        if k < 0 or k > self.steps:
            raise ValueError(f"step index {k} out of range")
        if k == 0:
            return np.ones(1)
        j = np.arange(k + 1)
        w = self.b[k - j] - self.b[k - j + 1]
        w[0] = self.b[k]
        return w


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
    return L1Kernel(alpha=alpha, dt=dt, steps=steps, b=b, alpha0=alpha0)


def history_rhs(kernel: L1Kernel, history) -> np.ndarray:
    """Telescoped history term w = (1-b_1)u^k + ... + b_k u^0 at step k.

    ``history`` holds u^0..u^k as the rows of a 2-D array.
    """
    H = np.asarray(history, dtype=float)
    if H.shape[0] == 0:
        raise ValueError("history is empty")
    return kernel.history_weights(H.shape[0] - 1) @ H

