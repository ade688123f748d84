"""Shared numeric kernels: the sparse LU of fine systems, the banded Cholesky
of patch systems, the dense generalized eigensolve and saddle-point (KKT)
solve called on every element, and the Gamma function.

Sparse matrices are scipy CSR/CSC throughout.  :func:`_sparse_lu` factors
the SPD fine-space systems in SuperLU's symmetric mode (minimum degree on
A^T + A, diagonal pivots).  :func:`_banded_cholesky` solves an SPD patch
skeleton system of the basis builders (see :mod:`spaces`) from its LAPACK
lower band, with no permutation, by ``pbtrf``/``pbtrs`` called directly, as
dense LU calls ``getrf``/``getrs``.  Element saddle solves and fine-space
solves must pass one residual contract, a normwise backward error
(:func:`_check_backward_error`); the patch solutions are checked by their
basis builder on the full patch saddle systems.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs, dpbtrf, dpbtrs

# Largest normwise backward error ||K x - r||_1 / (||K||_1 ||x||_1 + ||r||_1)
# accepted per right-hand side of a direct solve; measured ones stay below
# 1e-16, a wrong factorization gives errors of order one.
BACKWARD_TOL = 1e-12
# Smallest accepted ratio of a constraint block's extreme singular values;
# equilibrated production blocks have condition numbers of at most 9.3.
RANK_RTOL = 1e-8


class SolveError(RuntimeError):
    """A linear solve failed or did not meet its residual contract; in a
    stack of solves, ``block`` names the failing one (``reason`` omits it)."""

    def __init__(self, reason: str, block=None):
        super().__init__(reason if block is None else f"block {block}: {reason}")
        self.reason, self.block = reason, block


def _sparse_lu(K):
    """SuperLU factorization of a sparse SPD fine-space system K, symmetric mode.

    Raises SolveError when SuperLU reports a singular factorization.  The
    name is private so that perfbench's tracer, which wraps public functions
    only, keeps timing each factorization as ``splu`` under its caller.
    """
    try:
        return spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolveError(f"sparse factorization failed: {exc}") from exc


def _banded_cholesky(band, b):
    """Solution of K x = b for the SPD matrix K whose LAPACK lower band is
    the (width, n) ``band`` (row d holds K[j + d, j]), by one ``pbtrf`` and
    one ``pbtrs`` in K's own order; SolveError names the first non-positive
    leading minor."""
    cb, info = dpbtrf(band, lower=1)
    if info > 0:
        raise SolveError(f"not positive definite (leading minor {info} of {band.shape[1]})")
    return dpbtrs(cb, b, lower=1)[0]


def _check_backward_error(Kx, norm_K, x, r):
    """Raise SolveError unless every column of ``x`` solves K x = r, given
    ``Kx`` and the 1-norm ``norm_K``, to a normwise backward error within
    BACKWARD_TOL (tested as "within", so that a NaN fails too).  Arrays are
    (n,), (n, c) or a stack (s, n, c) with s norms; a stack names its block."""
    stacked = x.ndim == 3
    x, r, Kx = (a if stacked else a.reshape(1, len(a), -1) for a in (x, r, Kx))
    scale = (np.reshape(norm_K, (-1, 1)) * np.abs(x).sum(axis=1)
             + np.abs(r).sum(axis=1))
    err = np.abs(Kx - r).sum(axis=1) / np.where(scale > 0, scale, 1.0)
    bad = np.argwhere(~(err <= BACKWARD_TOL))
    if len(bad):
        i, j = bad[0]
        raise SolveError(f"column {j}: backward error {err[i, j]:.3e} "
                         f"above {BACKWARD_TOL:.0e}", int(i) if stacked else None)


def _eig_smallest(A, B, k: int):
    """(values, vectors) of the k smallest eigenpairs of the dense pencil
    A v = lambda B v (B SPD), values ascending and vectors B-orthonormal; a k
    outside [1, dimension] or a failed LAPACK call raises SolveError.
    Private, so that perfbench's tracer times ``eigh`` under its caller."""
    if k < 1:
        raise SolveError(f"requested {k} eigenpairs, need at least 1")
    if len(A) < k:
        raise SolveError(f"requested {k} eigenpairs, space has dimension {len(A)}")
    try:
        return sla.eigh(A, B, subset_by_index=(0, k - 1))
    except sla.LinAlgError as exc:
        raise SolveError(f"generalized eigenproblem failed ({exc})") from exc


def kkt_solve(A, C, b, g):
    """Solve dense saddle systems  A x + C^T mu = b,  C x = g.

    A is (n, n), C (m, n) with m >= 0, and b, g hold one (1-D) or a block of
    (2-D) right-hand sides; or all four carry a leading axis of s blocks,
    the unstacked form being a stack of one.  Each K = [[A, C^T], [C, 0]] is
    solved by one LU (getrf/getrs), and the stack is checked in one
    backward-error pass.  SolveError names the block for a C whose smallest
    singular value is not above RANK_RTOL times its largest (and its first
    dependent row), an exactly zero pivot, or a column whose backward error
    is not within BACKWARD_TOL.
    """
    A, C, b, g = (np.asarray(a, dtype=float) for a in (A, C, b, g))
    stacked = A.ndim == 3
    if not stacked:
        A, C, b, g = A[None], C[None], b[None], g[None]
    s, n, m = len(A), A.shape[1], C.shape[1]
    if m:
        sv = np.linalg.svd(C, compute_uv=False)
        low = np.flatnonzero((sv[:, -1] <= RANK_RTOL * sv[:, 0]) | (m > n))
        if len(low):
            _raise_rank_deficient(C[low[0]], int(low[0]))
    K = np.zeros((s, n + m, n + m))
    K[:, :n, :n], K[:, :n, n:], K[:, n:, :n] = A, C.transpose(0, 2, 1), C
    bg = np.concatenate([b, g], axis=1)
    rhs = bg.reshape(s, n + m, -1)
    sol = np.empty_like(rhs)
    for i in range(s):
        lu, piv, info = dgetrf(K[i])
        if info > 0:
            raise SolveError(f"singular saddle block (diagonal number {info} "
                             f"is exactly zero)", i)
        sol[i] = dgetrs(lu, piv, rhs[i])[0]
    _check_backward_error(K @ sol, np.abs(K).sum(axis=1).max(axis=1), sol, rhs)
    sol = sol.reshape(bg.shape)
    return (sol[:, :n], sol[:, n:]) if stacked else (sol[0, :n], sol[0, n:])


def _raise_rank_deficient(C, block: int):
    """Name the first dependent row of the rank-deficient C, by a pivoted QR
    of C^T with the relative threshold RANK_RTOL."""
    _, R, piv = sla.qr(C.T, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    rank = min(int((d > RANK_RTOL * d.max(initial=0.0)).sum()), len(C) - 1)
    raise SolveError(f"constraint matrix is rank deficient (rank {rank} of {len(C)}); "
                     f"first dependent constraint index {np.sort(piv[rank:])[0]}", block)


def gamma_fn(x: float) -> float:
    """Gamma(x) for x in (0.5, 2.5], the range used by the L1 kernel."""
    if not 0.5 < x <= 2.5:
        raise ValueError(f"gamma_fn argument {x} outside (0.5, 2.5]")
    return math.gamma(x)
