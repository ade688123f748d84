"""Time steppers on reduced (or fine) spaces.

The schemes are one partially explicit splitting step on the L1 history,
:func:`_step`: the stiffness of the first block of columns is implicit, that
of the rest lagged one step.  The fully implicit and fully explicit schemes
are its end points.  System matrices are step-independent, so each scheme
factors its left-hand matrix once per run.  The L1 history is summed a
block of HISTORY_BLOCK steps at a time (see :func:`run_scheme`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from . import assembly
from .fractional import L1Kernel, history_rhs, make_kernel
from .grid import GridHierarchy
from .linalg import SolveError, _check_backward_error, _sparse_lu
from .spaces import ReducedBasis

DIVERGENCE_FACTOR = 1e12
# Steps per block of the L1 history (see run_scheme).
HISTORY_BLOCK = 50


@dataclass
class ReducedSystem:
    """Galerkin-projected mass/stiffness pair with an optional block split.

    The first n1 columns belong to the implicitly treated space, the rest to
    the explicitly treated one.  Factorizations are cached per split and a0.
    """

    M: object
    A: object
    n1: int
    _factors: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0 <= self.n1 <= self.n:
            raise ValueError(f"n1 must lie in [0, {self.n}], got {self.n1}")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def solver(self, matrix):
        """Factor a (dense or sparse) matrix once; returns a solve closure.
        Sparse (fine-space) solves have their backward error checked; dense
        ones are LAPACK getrf/getrs, an exactly zero pivot raising SolveError."""
        if sp.issparse(matrix):
            lu, norm = _sparse_lu(matrix), spla.norm(matrix, 1)

            def solve(b):
                x = lu.solve(b)
                _check_backward_error(matrix @ x, norm, x, b)
                return x
            return solve
        lu, piv, info = dgetrf(matrix)
        if info > 0:
            raise SolveError(f"singular matrix (diagonal number {info} is exactly zero)")
        return lambda b: dgetrs(lu, piv, b)[0]


# Basis rows per block of the Galerkin products (3 MB each on experiment 1).
REDUCE_ROWS = 1024


def reduce(A, M, basis: ReducedBasis) -> ReducedSystem:
    """Project fine matrices onto a reduced basis (symmetrized products),
    summing R_b^T (A_b R) over blocks b of REDUCE_ROWS rows of R (a view is
    copied once), so that no (n_dofs, n) product is formed."""
    R = np.ascontiguousarray(basis.R)
    blocks = [slice(r, r + REDUCE_ROWS) for r in range(0, R.shape[0], REDUCE_ROWS)]
    Ar = sum(R[b].T @ (A[b] @ R) for b in blocks)
    Mr = sum(R[b].T @ (M[b] @ R) for b in blocks)
    Ar = 0.5 * (Ar + Ar.T)
    Mr = 0.5 * (Mr + Mr.T)
    # The rank is judged on Mr scaled to a unit diagonal, since the columns'
    # norms scale with kappa.  A zero or non-finite diagonal entry, which
    # would scale to NaN and so pass the spectral test, fails at once.
    d = np.diag(Mr)
    ok = np.all(np.isfinite(d) & (d > 0))
    if ok:
        s = 1.0 / np.sqrt(d)
        w = sla.eigvalsh(s[:, None] * Mr * s)
        ok = w.min() > 1e-12 * w.max()
    if not ok:
        raise SolveError("reduced mass matrix is not PD: basis is rank deficient")
    return ReducedSystem(M=Mr, A=Ar, n1=basis.n1)


@dataclass
class Trajectory:
    """Coefficient vectors u^0..u^N plus run metadata."""

    space: str
    alpha: float
    dt: float
    states: np.ndarray
    diverged: bool = False
    diverged_step: int = -1
    history_ops: int = 0

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# space={self.space} alpha={self.alpha:.17g} "
                     f"dt={self.dt:.17g} diverged={int(self.diverged)} "
                     f"diverged_step={self.diverged_step}\n")
            np.savetxt(fh, self.states, fmt="%.17g")


def _step(sys: ReducedSystem, kernel: L1Kernel, history, load: np.ndarray,
          n_imp: int, start: int, past) -> np.ndarray:
    """One splitting step with the stiffness of the first ``n_imp`` columns
    implicit and that of the rest lagged: ``n_imp`` = n is the implicit
    scheme (left matrix M + a0 A, sparse included), 0 the explicit one.  The
    left matrix is factored once per (``n_imp``, a0).  ``history``, ``start``
    and ``past`` are as in :func:`fractional.history_rhs`."""
    a0 = kernel.alpha0
    rhs = sys.M @ history_rhs(kernel, history, start, past)
    if n_imp < sys.n:
        rhs = rhs - a0 * (sys.A[:, n_imp:] @ np.asarray(history)[-1, n_imp:])
    rhs = rhs + a0 * load
    key = (n_imp, a0)
    if key not in sys._factors:
        if n_imp == sys.n:
            left = sys.M + a0 * sys.A
        else:
            left = sys.M.copy()
            left[:, :n_imp] += a0 * sys.A[:, :n_imp]
        sys._factors[key] = sys.solver(left)
    return sys._factors[key](rhs)


def step_implicit(sys: ReducedSystem, kernel: L1Kernel, history,
                  load: np.ndarray, start: int = 0, past=None) -> np.ndarray:
    """One step of (M + alpha0 A) u^{k+1} = M w + alpha0 F^{k+1}."""
    return _step(sys, kernel, history, load, sys.n, start, past)


def step_explicit(sys: ReducedSystem, kernel: L1Kernel, history,
                  load: np.ndarray, start: int = 0, past=None) -> np.ndarray:
    """One step of M u^{k+1} = M w - alpha0 A u^k + alpha0 F^{k+1}."""
    return _step(sys, kernel, history, load, 0, start, past)


def step_partial(sys: ReducedSystem, kernel: L1Kernel, history,
                 load: np.ndarray, start: int = 0, past=None) -> np.ndarray:
    """One splitting step: block-1 stiffness implicit, block-2 lagged."""
    return _step(sys, kernel, history, load, sys.n1, start, past)


_STEPPERS = {"implicit": step_implicit, "explicit": step_explicit,
             "partial": step_partial}


def run_scheme(scheme: str, sys: ReducedSystem, kernel: L1Kernel,
               u0: np.ndarray, forcing, space: str = "") -> Trajectory:
    """Run a full trajectory of N = kernel.steps steps.

    ``forcing`` is a callable step -> reduced load (step k requests
    F^{k+1}).  Blow-up is detected by a divergence guard and reported on the
    trajectory, not raised.  The history terms of u^0..u^(K-1) for a block
    of steps from K on are one product into a reused buffer.
    """
    if scheme not in _STEPPERS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                         f"{tuple(_STEPPERS)}")
    stepper = _STEPPERS[scheme]
    N = kernel.steps
    n = sys.n
    u0 = np.asarray(u0, dtype=float)
    states = np.zeros((N + 1, n))
    states[0] = u0
    bound = DIVERGENCE_FACTOR * (np.linalg.norm(u0) + 1.0)
    traj = Trajectory(space=space or scheme, alpha=kernel.alpha,
                      dt=kernel.dt, states=states)
    past = np.empty((min(HISTORY_BLOCK, N), n))
    for k in range(N):
        K = k - k % HISTORY_BLOCK
        if k == K:
            steps = np.arange(K, min(K + HISTORY_BLOCK, N))[:, None]
            np.matmul(kernel.weights(steps, np.arange(K)), states[:K], out=past[:len(steps)])
        u = stepper(sys, kernel, states[K:k + 1], forcing(k), K, past[k - K])
        states[k + 1] = u
        traj.history_ops += k + 1
        norm = np.linalg.norm(u)
        if not np.isfinite(norm) or norm > bound:
            traj.diverged = True
            traj.diverged_step = k + 1
            traj.states = states[:k + 2]
            break
    return traj


def fine_reference(grid: GridHierarchy, A, M, alpha: float, dt_fine: float,
                   forcing, n_steps: int) -> Trajectory:
    """Implicit reference run on the full fine space at step dt_fine, with
    the fine stiffness ``A`` and mass ``M``, from zero.  The forcing does
    not depend on time: its one load is built at the first step."""
    sys = ReducedSystem(M=M, A=A, n1=grid.n_dofs)
    kernel = make_kernel(alpha, dt_fine, n_steps)
    load = functools.cache(lambda: assembly.load_vector(grid, forcing, dt_fine))
    return run_scheme("implicit", sys, kernel, np.zeros(grid.n_dofs),
                      lambda k: load(), space="fine")
