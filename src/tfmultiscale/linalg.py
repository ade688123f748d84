"""Shared numeric kernels: the sparse LU factorization, cached SPD solves,
small dense generalized eigensolves, saddle-point (KKT) solves, and the Gamma
function.

Sparse matrices are scipy CSR/CSC throughout.  Every sparse factorization on
the production path goes through :func:`_sparse_lu`, which orders the matrix
by minimum degree on the pattern of A^T + A: the patch skeleton systems left
by the basis builders' static condensation (see :mod:`spaces`) and the
fine-space system matrices are structurally symmetric, and on them this
ordering fills far less than SuperLU's default column ordering (COLAMD).
Callers verify residuals after solving.  Local spectral problems and the
per-element saddle blocks of the condensation are small and are dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_TOL = 1e-10
PIVOT_RTOL = 1e-13


class SolveError(RuntimeError):
    """A linear solve failed or did not meet its residual contract."""


@dataclass
class EigPairs:
    """Generalized eigenpairs, eigenvalues ascending, vectors B-orthonormal."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def count(self) -> int:
        return len(self.values)


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


class SPDFactor:
    """Cached sparse LU of an SPD matrix, reusable across many solves."""

    def __init__(self, A):
        A = sp.csc_matrix(A)
        self.n = A.shape[0]
        self._A = A
        diag = A.diagonal()
        if self.n > 0 and diag.min() <= PIVOT_RTOL * max(diag.max(), 0.0):
            raise SolveError("matrix is not SPD: nonpositive or vanishing diagonal")
        self._lu = _sparse_lu(A)

    def solve(self, b: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        x = self._lu.solve(np.asarray(b, dtype=float))
        r = np.linalg.norm(self._A @ x - b)
        if r > tol * max(np.linalg.norm(b), 1e-300):
            raise SolveError(f"solve residual {r:.3e} exceeds tolerance")
        return x


def spd_solve(A, b: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve A x = b for sparse SPD A with a residual guarantee."""
    return SPDFactor(A).solve(b, tol=tol)


def gen_eig_smallest(A, B, m: int) -> EigPairs:
    """m smallest eigenpairs of A v = lambda B v (A sym PSD, B SPD).

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
    vals, vecs = sla.eigh(Ad, Bd, subset_by_index=(0, m - 1))
    return EigPairs(values=vals, vectors=vecs)


def kkt_solve(A, C, b: np.ndarray, g: np.ndarray, tol: float = DEFAULT_TOL):
    """Solve the saddle system  A x + C^T mu = b,  C x = g.

    A must be SPD on ker(C) and C full row rank; rank deficiency is
    diagnosed and reported with the offending constraint index.
    """
    C = sp.csr_matrix(C)
    m, n = C.shape
    if m == 0:
        return spd_solve(A, b, tol=tol), np.zeros(0)
    A = sp.csr_matrix(A)
    K = sp.bmat([[A, C.T], [C, None]], format="csc")
    rhs = np.concatenate([b, g])
    try:
        sol = _sparse_lu(K).solve(rhs)
    except SolveError as exc:
        _raise_rank_deficient(C, exc)
        raise
    x, mu = sol[:n], sol[n:]
    r1 = np.linalg.norm(A @ x + C.T @ mu - b)
    r2 = np.linalg.norm(C @ x - g)
    scale = max(np.linalg.norm(rhs), 1.0)
    if r1 > tol * scale or r2 > tol * scale:
        _raise_rank_deficient(C, None)
        raise SolveError(f"KKT residuals too large: {r1:.3e}, {r2:.3e}")
    return x, mu


def _raise_rank_deficient(C, cause):
    """If C is rank-deficient, name the first dependent constraint row."""
    Cd = C.toarray()
    _, R, piv = sla.qr(Cd.T, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    thresh = max(Cd.shape) * np.finfo(float).eps * (d.max() if len(d) else 0.0)
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
