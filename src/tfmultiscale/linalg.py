"""Shared numeric kernels: the sparse LU factorization, small dense
generalized eigensolves, the dense saddle-point (KKT) solve of the basis
builders' element blocks, and the Gamma function.

Sparse matrices are scipy CSR/CSC throughout.  Every sparse factorization on
the production path goes through :func:`_sparse_lu`, which orders the matrix
by minimum degree on the pattern of A^T + A: the patch skeleton systems left
by the basis builders' static condensation (see :mod:`spaces`) and the
fine-space system matrices are structurally symmetric, and on them this
ordering fills far less than SuperLU's default column ordering (COLAMD).
Element saddle solves and fine-space solves must pass one residual
contract, a normwise backward error (:func:`_check_backward_error`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Largest normwise backward error ||K x - r||_1 / (||K||_1 ||x||_1 + ||r||_1)
# accepted per right-hand side of a direct solve; measured ones stay below
# 1e-16, a wrong factorization gives errors of order one.
BACKWARD_TOL = 1e-12


class SolveError(RuntimeError):
    """A linear solve failed or did not meet its residual contract."""


def _sparse_lu(K):
    """SuperLU factorization of sparse K with a symmetric fill-reducing ordering.

    Raises SolveError when SuperLU reports a singular factorization.  The
    name is private so that perfbench's tracer, which wraps public functions
    only, keeps timing each factorization as ``splu`` under its caller.
    """
    try:
        return spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolveError(f"sparse factorization failed: {exc}") from exc


def _check_backward_error(K, norm_K, x, r):
    """Raise SolveError unless every column of ``x`` solves K x = r (dense or
    sparse K, ``norm_K`` its 1-norm) to a normwise backward error within
    BACKWARD_TOL.  Tested as "within", so that a NaN fails too."""
    x2, r2 = x.reshape(len(x), -1), r.reshape(len(r), -1)
    scale = norm_K * np.abs(x2).sum(axis=0) + np.abs(r2).sum(axis=0)
    err = np.abs(K @ x2 - r2).sum(axis=0) / np.where(scale > 0, scale, 1.0)
    ok = err <= BACKWARD_TOL
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        raise SolveError(f"column {j}: backward error {err[j]:.3e} "
                         f"above {BACKWARD_TOL:.0e}")


def gen_eig_smallest(A, B, m: int):
    """(values, vectors) of the m smallest eigenpairs of A v = lambda B v
    (A sym PSD, B SPD), values ascending and vectors B-orthonormal.

    Problems are projected to dense arrays; intended for local patch/element
    problems of dimension up to a few thousand.
    """
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Bd = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    n = Ad.shape[0]
    if m > n:
        raise ValueError(f"requested {m} eigenpairs from a {n}-dim problem")
    try:
        sla.cholesky(Bd)
    except sla.LinAlgError as exc:
        raise SolveError("B is not SPD") from exc
    return sla.eigh(Ad, Bd, subset_by_index=(0, m - 1))


def kkt_solve(A, C, b, g):
    """Solve the dense saddle system  A x + C^T mu = b,  C x = g  for one
    (1-D) or a block of (2-D) right-hand sides by one LU (getrf/getrs) of
    K = [[A, C^T], [C, 0]]; C may have no rows.  An exactly zero pivot or a
    column whose backward error is not within BACKWARD_TOL raises
    SolveError, naming the first dependent constraint if C is rank deficient.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    n, m = len(A), len(C)
    K = np.zeros((n + m, n + m), order="F")
    K[:n, :n] = A
    K[:n, n:] = C.T
    K[n:, :n] = C
    rhs = np.concatenate([np.asarray(b, dtype=float), np.asarray(g, dtype=float)])
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (K,))
    lu, piv, info = getrf(K)
    try:
        if info > 0:
            raise SolveError(f"singular saddle block (diagonal number {info} "
                             f"is exactly zero)")
        sol = getrs(lu, piv, rhs)[0]
        _check_backward_error(K, np.linalg.norm(K, 1), sol, rhs)
    except SolveError as exc:
        _raise_rank_deficient(C, exc)
        raise
    return sol[:n], sol[n:]


def _raise_rank_deficient(C, cause):
    """If C is rank-deficient, name the first dependent constraint row."""
    _, R, piv = sla.qr(C.T, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    thresh = max(C.shape) * np.finfo(float).eps * (d.max() if len(d) else 0.0)
    rank = int((d > thresh).sum())
    if rank < C.shape[0]:
        bad = int(np.sort(piv[rank:])[0])
        raise SolveError(
            f"constraint matrix is rank deficient (rank {rank} of {C.shape[0]}); "
            f"first dependent constraint index {bad}") from cause


def gamma_fn(x: float) -> float:
    """Gamma(x) for x in (0.5, 2.5], the range used by the L1 kernel."""
    if not 0.5 < x <= 2.5:
        raise ValueError(f"gamma_fn argument {x} outside (0.5, 2.5]")
    return math.gamma(x)
