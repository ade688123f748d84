"""Tests for the shared numeric kernels, including the independent oracles
(dense Gaussian elimination, characteristic-polynomial bisection) used by the
acceptance suite."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tfmultiscale.linalg import (SolveError, _banded_cholesky,
                                 _check_backward_error, _eig_smallest,
                                 _sparse_lu, gamma_fn, kkt_solve)


def random_spd(n, rng, scale=1.0):
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T + n * np.eye(n))


def gauss_solve(A, b):
    """Plain Gaussian elimination with partial pivoting (test oracle)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        p = col + np.argmax(np.abs(A[col:, col]))
        if p != col:
            A[[col, p]] = A[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def charpoly_eigs_bisect(A, B, tol=1e-12):
    """All eigenvalues of A v = lambda B v via sign changes of det(A - t B).

    Brackets each root of the characteristic polynomial by scanning, then
    bisects; independent of any LAPACK eigensolver.
    """
    n = A.shape[0]

    def f(t):
        return np.linalg.det(A - t * B)

    lo = -1.0
    hi = float(np.linalg.norm(A, 2) / min(np.linalg.eigvalsh(B))) + 1.0
    ts = np.linspace(lo, hi, 200001)
    vals = np.array([f(t) for t in ts])
    roots = []
    for i in range(len(ts) - 1):
        if vals[i] == 0.0:
            roots.append(ts[i])
        elif vals[i] * vals[i + 1] < 0:
            a, b = ts[i], ts[i + 1]
            for _ in range(100):
                m = 0.5 * (a + b)
                if f(a) * f(m) <= 0:
                    b = m
                else:
                    a = m
                if b - a < tol:
                    break
            roots.append(0.5 * (a + b))
    assert len(roots) == n, "oracle failed to isolate all roots"
    return np.array(sorted(roots))


def kkt_dense_oracle(A, C, b, g):
    """Saddle-point solve by dense block elimination (test oracle)."""
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    Ainv_b = gauss_solve(A, b)
    Ainv_Ct = np.column_stack([gauss_solve(A, C[i]) for i in range(C.shape[0])])
    S = C @ Ainv_Ct
    mu = gauss_solve(S, C @ Ainv_b - g)
    x = Ainv_b - Ainv_Ct @ mu
    return x, mu


# --------------------------------------------------------------- _sparse_lu

def test_sparse_lu_solves_block_of_right_hand_sides():
    rng = np.random.default_rng(7)
    A = random_spd(9, rng)
    B = rng.standard_normal((9, 4))
    X = _sparse_lu(sp.csr_matrix(A)).solve(B)
    for j in range(4):
        assert np.allclose(X[:, j], gauss_solve(A, B[:, j]), rtol=1e-9, atol=1e-12)


def test_sparse_lu_singular_raises_solve_error():
    with pytest.raises(SolveError, match="factorization"):
        _sparse_lu(sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))


# --------------------------------------------------------- _banded_cholesky

def random_band_spd(rng, n, bw, holes):
    """Dense symmetric, strictly diagonally dominant band of half-width
    ``bw``, each off-diagonal entry of the band a hole with chance ``holes``."""
    lower = np.tril(rng.standard_normal((n, n)), -1)
    i, j = np.indices((n, n))
    lower[(i - j > bw) | (rng.random((n, n)) < holes)] = 0.0
    K = lower + lower.T
    return K + np.diag(np.abs(K).sum(axis=1) + rng.uniform(0.1, 10.0, n))


def lower_band(K, bw):
    """LAPACK lower band storage of K, half-width ``bw``: row d holds K[j + d, j]."""
    band = np.zeros((bw + 1, len(K)))
    for d in range(min(bw, len(K) - 1) + 1):
        band[d, :len(K) - d] = np.diagonal(K, -d)
    return band


band_cases = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
                  bw=st.integers(0, 12), holes=st.floats(0.0, 0.9))


@settings(max_examples=60, deadline=None)
@given(nrhs=st.integers(1, 5), **band_cases)
def test_banded_cholesky_solves_random_spd_bands(nrhs, seed, n, bw, holes):
    rng = np.random.default_rng(seed)
    K = random_band_spd(rng, n, bw, holes)
    r = rng.standard_normal((n, nrhs))
    x = _banded_cholesky(lower_band(K, bw), r)
    _check_backward_error(K @ x, np.abs(K).sum(axis=0).max(), x, r)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), singular=st.booleans(), **band_cases)
def test_banded_cholesky_rejects_indefinite_or_singular(data, singular, seed, n,
                                                        bw, holes):
    """Row and column p are zeroed, and the diagonal entry left 0 (singular)
    or set to -1 (indefinite): leading minor p + 1 is the first that is not
    positive."""
    K = random_band_spd(np.random.default_rng(seed), n, bw, holes)
    p = data.draw(st.integers(0, n - 1))
    K[p, :] = K[:, p] = 0.0
    K[p, p] = 0.0 if singular else -1.0
    with pytest.raises(SolveError, match=rf"not positive definite \(leading minor "
                                         rf"{p + 1} of {n}\)"):
        _banded_cholesky(lower_band(K, bw), np.ones((n, 1)))


# ------------------------------------------------------------- _eig_smallest

def test_gen_eig_identity_pair():
    values, _ = _eig_smallest(np.eye(4), np.eye(4), 3)
    assert np.allclose(values, 1.0)


def test_gen_eig_diagonal():
    values, _ = _eig_smallest(np.diag([3.0, 1.0, 2.0]), np.eye(3), 2)
    assert np.allclose(values, [1.0, 2.0])


def test_gen_eig_vs_charpoly_bisection():
    rng = np.random.default_rng(2)
    A = random_spd(6, rng)
    B = random_spd(6, rng)
    values, _ = _eig_smallest(A, B, 6)
    oracle = charpoly_eigs_bisect(A, B)
    assert np.allclose(values, oracle, rtol=1e-9, atol=1e-9)


def test_gen_eig_b_orthonormal():
    rng = np.random.default_rng(3)
    A = random_spd(7, rng)
    B = random_spd(7, rng)
    _, vectors = _eig_smallest(A, B, 5)
    G = vectors.T @ B @ vectors
    assert np.allclose(G, np.eye(5), atol=1e-10)


def test_gen_eig_scaling_invariance():
    rng = np.random.default_rng(4)
    A = random_spd(6, rng)
    B = random_spd(6, rng)
    values1, _ = _eig_smallest(A, B, 4)
    values2, _ = _eig_smallest(7.3 * A, 7.3 * B, 4)
    assert np.allclose(values1, values2, rtol=1e-10)


def test_gen_eig_errors():
    with pytest.raises(SolveError, match="requested 4 eigenpairs, space has dimension 3"):
        _eig_smallest(np.eye(3), np.eye(3), 4)
    for k in (0, -1):
        with pytest.raises(SolveError, match=f"requested {k} eigenpairs, need at least 1"):
            _eig_smallest(np.eye(3), np.eye(3), k)
    with pytest.raises(SolveError):
        _eig_smallest(np.eye(2), np.diag([1.0, -1.0]), 1)


# ------------------------------------------------------------------ kkt_solve

def test_kkt_empty_constraints_reduces_to_spd():
    rng = np.random.default_rng(5)
    A = random_spd(5, rng)
    b = rng.standard_normal(5)
    x, mu = kkt_solve(A, np.zeros((0, 5)), b, np.zeros(0))
    assert len(mu) == 0
    assert np.allclose(x, gauss_solve(A, b), rtol=1e-9)


def test_kkt_hand_example():
    x, mu = kkt_solve(np.eye(2), np.array([[1.0, 0.0]]), np.zeros(2),
                      np.array([1.0]))
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert mu[0] == pytest.approx(-1.0)


def test_kkt_vs_dense_oracle():
    rng = np.random.default_rng(6)
    A = random_spd(10, rng)
    C = rng.standard_normal((3, 10))
    b = rng.standard_normal(10)
    g = rng.standard_normal(3)
    x, mu = kkt_solve(A, C, b, g)
    xo, muo = kkt_dense_oracle(A, C, b, g)
    assert np.allclose(x, xo, rtol=1e-9, atol=1e-10)
    assert np.allclose(mu, muo, rtol=1e-9, atol=1e-10)
    assert np.linalg.norm(A @ x + C.T @ mu - b) < 1e-10 * max(np.linalg.norm(b), 1)
    assert np.linalg.norm(C @ x - g) < 1e-10 * max(np.linalg.norm(g), 1)


def test_kkt_rank_deficient_names_constraint():
    A = np.eye(4)
    C = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    with pytest.raises(SolveError, match="constraint"):
        kkt_solve(A, C, np.zeros(4), np.array([1.0, 1.0]))


def test_kkt_block_of_right_hand_sides_matches_single_solves():
    rng = np.random.default_rng(8)
    A = random_spd(9, rng)
    C = rng.standard_normal((2, 9))
    B = rng.standard_normal((9, 5))
    G = rng.standard_normal((2, 5))
    X, MU = kkt_solve(A, C, B, G)
    assert X.shape == (9, 5) and MU.shape == (2, 5)
    for j in range(5):
        x, mu = kkt_solve(A, C, B[:, j], G[:, j])
        assert np.allclose(X[:, j], x, rtol=1e-12, atol=1e-14)
        assert np.allclose(MU[:, j], mu, rtol=1e-12, atol=1e-14)


def test_kkt_zero_right_hand_side_gives_zero():
    x, mu = kkt_solve(2.0 * np.eye(3), np.ones((1, 3)), np.zeros(3), np.zeros(1))
    assert not x.any() and not mu.any()


def test_kkt_non_finite_right_hand_side_fails_backward_error_check():
    rng = np.random.default_rng(9)
    A = random_spd(4, rng)
    b = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(SolveError, match="column 0: backward error nan"):
        kkt_solve(A, np.ones((1, 4)), b, np.zeros(1))



def test_kkt_singular_block_with_independent_constraints_raises():
    with pytest.raises(SolveError, match="singular saddle block"):
        kkt_solve(np.zeros((2, 2)), np.zeros((0, 2)), np.ones(2), np.zeros(0))


def _saddle_stack(rng, s=5, n=7, m=2, c=3):
    A = np.stack([random_spd(n, rng, scale=10.0 ** k) for k in range(s)])
    return (A, rng.standard_normal((s, m, n)), rng.standard_normal((s, n, c)),
            rng.standard_normal((s, m, c)))


def test_kkt_stack_matches_per_block_solves():
    A, C, B, G = _saddle_stack(np.random.default_rng(10))
    X, MU = kkt_solve(A, C, B, G)
    assert X.shape == B.shape and MU.shape == G.shape
    for i in range(len(A)):
        x, mu = kkt_solve(A[i], C[i], B[i], G[i])
        assert np.allclose(X[i], x, rtol=1e-14, atol=0.0)
        assert np.allclose(MU[i], mu, rtol=1e-14, atol=0.0)
        x1, mu1 = kkt_solve(A[:i + 1], C[:i + 1], B[:i + 1, :, 0], G[:i + 1, :, 0])
        assert np.allclose(x1[i], x[:, 0], rtol=1e-14, atol=0.0)
        assert np.allclose(mu1[i], mu[:, 0], rtol=1e-14, atol=0.0)


def test_kkt_stack_names_the_failing_block():
    A, C, B, G = _saddle_stack(np.random.default_rng(11))
    B[3, 1, 2] = np.nan
    with pytest.raises(SolveError, match="block 3: column 2: backward error nan") as info:
        kkt_solve(A, C, B, G)
    assert info.value.block == 3 and info.value.reason.startswith("column 2")
    A, C, B, G = _saddle_stack(np.random.default_rng(12))
    A[2], C[2] = 0.0, np.eye(2, A.shape[1], 1)      # singular on null(C)
    with pytest.raises(SolveError, match="block 2: singular saddle block"):
        kkt_solve(A, C, B, G)
    C[2], C[4, 1] = np.eye(2, A.shape[1]), 0.5 * C[4, 0]
    with pytest.raises(SolveError, match="block 4: constraint matrix is rank "
                       "deficient .rank 1 of 2.; first dependent constraint index 1"):
        kkt_solve(A, C, B, G)


def test_kkt_rejects_near_dependent_constraints_before_the_lu():
    """A constraint row equal to another up to a relative 1e-12 is named as
    an exactly repeated one is, whatever its target; rows 1e-6 apart pass."""
    rng = np.random.default_rng(13)
    A = random_spd(6, rng)
    C = rng.standard_normal((3, 6))
    C[2] = C[0] * (1.0 + 1e-12 * rng.standard_normal(6))
    g = np.array([1.0, 0.0, 2.0])
    with pytest.raises(SolveError, match="rank deficient .rank 2 of 3.; "
                       "first dependent constraint index [02]"):
        kkt_solve(A, C, np.zeros(6), g)
    C[2] = C[0] + 1e-6 * rng.standard_normal(6)
    x, _ = kkt_solve(A, C, np.zeros(6), g)
    assert np.linalg.norm(C @ x - g) <= 1e-9 * np.linalg.norm(C) * np.linalg.norm(x)

# ------------------------------------------------------------------- gamma_fn

def test_gamma_known_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma_fn(2.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
    assert gamma_fn(1.5) == pytest.approx(0.886226925452758, rel=1e-12)


def test_gamma_functional_equation():
    for x in np.linspace(0.51, 1.5, 20):
        assert gamma_fn(x + 1) == pytest.approx(x * gamma_fn(x), rel=1e-11)


def test_gamma_range_check():
    with pytest.raises(ValueError):
        gamma_fn(0.5)
    with pytest.raises(ValueError):
        gamma_fn(3.0)
