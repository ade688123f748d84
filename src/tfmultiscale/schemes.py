"""Time steppers on reduced (or fine) spaces.

Three schemes share the L1 history machinery: fully implicit, fully
explicit (stiffness lagged one step), and the partially explicit splitting
where only the first block's stiffness is treated implicitly.  System
matrices are step-independent, so each scheme factors its left-hand matrix
once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .fractional import L1Kernel, history_rhs, make_kernel
from .grid import GridHierarchy
from .linalg import SolveError, _check_backward_error, _sparse_lu
from .spaces import ReducedBasis

DIVERGENCE_FACTOR = 1e12

SCHEMES = ("implicit", "explicit", "partial")


@dataclass
class ReducedSystem:
    """Galerkin-projected mass/stiffness pair with an optional block split.

    n1 columns belong to the implicitly treated space, the remaining n2 to
    the explicitly treated one.  Factorizations are cached per scheme.
    """

    M: object
    A: object
    n1: int
    n2: int
    _factors: dict = dc_field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def _solve_with(self, key, build, rhs):
        if key not in self._factors:
            self._factors[key] = build()
        return self._factors[key](rhs)

    def solver(self, matrix):
        """Factor a (dense or sparse) matrix once; returns a solve closure.
        Sparse (fine-space) solves have their backward error checked."""
        if sp.issparse(matrix):
            lu, norm = _sparse_lu(matrix), spla.norm(matrix, 1)

            def solve(b):
                x = lu.solve(b)
                _check_backward_error(matrix, norm, x, b)
                return x
            return solve
        lu, piv = sla.lu_factor(np.asarray(matrix))
        return lambda b: sla.lu_solve((lu, piv), b)


def reduce(A, M, basis: ReducedBasis) -> ReducedSystem:
    """Project fine matrices onto a reduced basis (symmetrized products)."""
    R = basis.R
    Ar = R.T @ (A @ R)
    Mr = R.T @ (M @ R)
    Ar = 0.5 * (Ar + Ar.T)
    Mr = 0.5 * (Mr + Mr.T)
    w = sla.eigvalsh(Mr)
    if w.min() <= 1e-12 * w.max():
        raise SolveError("reduced mass matrix is not PD: basis is rank deficient")
    n1 = int(np.sum(basis.tags != "v2"))
    return ReducedSystem(M=Mr, A=Ar, n1=n1, n2=Mr.shape[0] - n1)


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


def load_trajectory(path) -> Trajectory:
    with open(path) as fh:
        header = fh.readline()
        meta = dict(tok.split("=") for tok in header.lstrip("# ").split())
        states = np.loadtxt(fh, ndmin=2)
    return Trajectory(space=meta["space"], alpha=float(meta["alpha"]),
                      dt=float(meta["dt"]), states=states,
                      diverged=bool(int(meta.get("diverged", "0"))),
                      diverged_step=int(meta.get("diverged_step", "-1")))


def _implicit_matrix(sys: ReducedSystem, alpha0: float):
    return sys.M + alpha0 * sys.A


def step_implicit(sys: ReducedSystem, kernel: L1Kernel, history,
                  load: np.ndarray) -> np.ndarray:
    """One step of (M + alpha0 A) u^{k+1} = M w + alpha0 F^{k+1}."""
    w = history_rhs(kernel, history)
    rhs = sys.M @ w + kernel.alpha0 * load
    key = ("implicit", kernel.alpha0)
    return sys._solve_with(key, lambda: sys.solver(_implicit_matrix(sys, kernel.alpha0)), rhs)


def step_explicit(sys: ReducedSystem, kernel: L1Kernel, history,
                  load: np.ndarray) -> np.ndarray:
    """One step of M u^{k+1} = M w - alpha0 A u^k + alpha0 F^{k+1}."""
    w = history_rhs(kernel, history)
    uk = np.asarray(history)[-1]
    rhs = sys.M @ w - kernel.alpha0 * (sys.A @ uk) + kernel.alpha0 * load
    return sys._solve_with(("mass",), lambda: sys.solver(sys.M), rhs)


def step_partial(sys: ReducedSystem, kernel: L1Kernel, history,
                 load: np.ndarray) -> np.ndarray:
    """One splitting step: block-1 stiffness implicit, block-2 lagged.

    Left matrix [[M11 + a0 A11, M12], [M21 + a0 A21, M22]] is constant in
    time and factored once.
    """
    n1, n2 = sys.n1, sys.n2
    if n2 == 0:
        return step_implicit(sys, kernel, history, load)
    if n1 == 0:
        return step_explicit(sys, kernel, history, load)
    a0 = kernel.alpha0
    w = history_rhs(kernel, history)
    uk = np.asarray(history)[-1]
    u2k = uk[n1:]

    def build():
        M = np.asarray(sys.M)
        A = np.asarray(sys.A)
        left = M.copy()
        left[:, :n1] += a0 * A[:, :n1]
        return sys.solver(left)

    A2 = np.asarray(sys.A)[:, n1:]
    rhs = sys.M @ w - a0 * (A2 @ u2k) + a0 * load
    return sys._solve_with(("partial", a0), build, rhs)


_STEPPERS = {"implicit": step_implicit, "explicit": step_explicit,
             "partial": step_partial}


def run_scheme(scheme: str, sys: ReducedSystem, kernel: L1Kernel,
               u0: np.ndarray, forcing, space: str = "") -> Trajectory:
    """Run a full trajectory of N = kernel.steps steps.

    ``forcing`` is either an (N, n) array of reduced loads F^1..F^N or a
    callable step -> load (step k requests F^{k+1}).  Blow-up is detected by
    a divergence guard and reported on the trajectory, not raised.
    """
    if scheme not in _STEPPERS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    stepper = _STEPPERS[scheme]
    N = kernel.steps
    n = sys.n
    u0 = np.asarray(u0, dtype=float)
    states = np.zeros((N + 1, n))
    states[0] = u0
    bound = DIVERGENCE_FACTOR * (np.linalg.norm(u0) + 1.0)
    traj = Trajectory(space=space or scheme, alpha=kernel.alpha,
                      dt=kernel.dt, states=states)
    for k in range(N):
        load = forcing(k) if callable(forcing) else forcing[k]
        u = stepper(sys, kernel, states[:k + 1], load)
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
                   forcing, u0, n_steps: int) -> Trajectory:
    """Implicit reference run on the full fine space at step dt_fine, with
    the fine stiffness ``A`` and mass ``M``.  A forcing with a true
    ``time_independent`` attribute has its load built at the first step and
    reused; any other forcing gets one load per step."""
    sys = ReducedSystem(M=M, A=A, n1=grid.n_dofs, n2=0)
    kernel = make_kernel(alpha, dt_fine, n_steps)
    if u0 is None:
        u0 = np.zeros(grid.n_dofs)
    constant = getattr(forcing, "time_independent", False)
    built = []

    def loads(k):
        if not constant:
            return assembly.load_vector(grid, forcing, (k + 1) * dt_fine)
        if not built:
            built.append(assembly.load_vector(grid, forcing, dt_fine))
        return built[0]

    return run_scheme("implicit", sys, kernel, u0, loads, space="fine")
