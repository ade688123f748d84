"""Tests for the three time steppers, the reduction machinery, the
divergence guard, and the fine reference solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tfmultiscale as t
from tfmultiscale import assembly, schemes, spaces
from tfmultiscale.fractional import history_rhs, make_kernel
from tfmultiscale.linalg import SolveError, _sparse_lu, gamma_fn
from tfmultiscale.schemes import (HISTORY_BLOCK, ReducedSystem, fine_reference, reduce,
                                  run_scheme, step_explicit, step_implicit,
                                  step_partial)
from tfmultiscale.spaces import ReducedBasis


def make_basis(R, n1=None):
    return ReducedBasis(R=R, n1=R.shape[1] if n1 is None else n1)


def scalar_system(lam):
    return ReducedSystem(M=np.array([[1.0]]), A=np.array([[lam]]), n1=1)


def gram_schmidt_m(vectors, M):
    """M-orthonormalization by classical Gram-Schmidt (test oracle)."""
    out = []
    for v in vectors.T:
        w = v.astype(float).copy()
        for u in out:
            w -= (u @ (M @ w)) * u
        w /= np.sqrt(w @ (M @ w))
        out.append(w)
    return np.column_stack(out)


# ----------------------------------------------------------------------- reduce

def test_reduce_identity_basis():
    g = t.build_grids(2, 3)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    sys_r = reduce(A, M, make_basis(np.eye(g.n_dofs)))
    assert np.allclose(sys_r.A, A.toarray(), atol=1e-14)
    assert np.allclose(sys_r.M, M.toarray(), atol=1e-14)


def test_reduce_single_column():
    g = t.build_grids(2, 2)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    rng = np.random.default_rng(0)
    r = rng.standard_normal(g.n_dofs)
    sys_r = reduce(A, M, make_basis(r[:, None]))
    assert sys_r.M[0, 0] == pytest.approx(r @ (M @ r), rel=1e-12)
    assert sys_r.A[0, 0] == pytest.approx(r @ (A @ r), rel=1e-12)


def test_reduce_m_orthonormal_basis_gives_identity():
    g = t.build_grids(2, 3)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    rng = np.random.default_rng(1)
    Q = gram_schmidt_m(rng.standard_normal((g.n_dofs, 6)), M)
    sys_r = reduce(A, M, make_basis(Q))
    assert np.allclose(sys_r.M, np.eye(6), atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(coarse_n=st.integers(2, 3), refine=st.integers(2, 3),
       n_cols=st.integers(1, 6), n_v2=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_reduce_symmetric_and_mass_positive_on_random_bases(coarse_n, refine,
                                                             n_cols, n_v2, seed):
    g = t.build_grids(coarse_n, refine)
    rng = np.random.default_rng(seed)
    fld = assembly.PermeabilityField(10.0 ** rng.uniform(0, 4, g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    n_v2 = min(n_v2, n_cols)
    R = rng.standard_normal((g.n_dofs, n_cols))
    sys_r = reduce(A, M, make_basis(R, n_cols - n_v2))
    assert np.array_equal(sys_r.A, sys_r.A.T)
    assert np.array_equal(sys_r.M, sys_r.M.T)
    np.linalg.cholesky(sys_r.M)        # raises unless M is positive definite
    assert (sys_r.n1, sys_r.n) == (n_cols - n_v2, n_cols)


def test_reduce_row_blocks_of_a_column_view_match_the_whole_product():
    """1,225 fine DOFs: one full block of REDUCE_ROWS rows and a partial one."""
    g = t.build_grids(4, 9)
    assert g.n_dofs > schemes.REDUCE_ROWS and g.n_dofs % schemes.REDUCE_ROWS
    rng = np.random.default_rng(3)
    fld = assembly.PermeabilityField(10.0 ** rng.uniform(0, 4, g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    R = rng.standard_normal((g.n_dofs, 30))[:, 4:24]
    assert not R.flags.c_contiguous
    sys_r = reduce(A, M, make_basis(R, 12))
    for got, K in ((sys_r.A, A), (sys_r.M, M)):
        want = R.T @ (K @ R)
        assert np.array_equal(got, got.T)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert (sys_r.n1, sys_r.n) == (12, 20)


def test_reduce_rejects_rank_deficient():
    g = t.build_grids(2, 2)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    R = np.zeros((g.n_dofs, 2))
    R[:, 0] = 1.0
    R[:, 1] = 2.0
    with pytest.raises(SolveError, match="rank"):
        reduce(A, M, make_basis(R))


@pytest.mark.parametrize("column", [lambda R: R[:, 0], lambda R: 0.0,
                                    lambda R: np.nan],
                         ids=["repeated", "zero", "nan"])
def test_reduce_rejects_a_degenerate_column(column):
    """Scaled to a unit diagonal, Mr is still singular with a repeated
    column; a zero or NaN column gives it a diagonal entry that would scale
    it to NaN, which would pass the spectral test silently."""
    g = t.build_grids(2, 3)
    A = assembly.assemble(g, assembly.PermeabilityField(np.ones(g.n_cells)),
                          "stiffness")
    M = assembly.assemble(g, None, "mass")
    R = np.random.default_rng(4).standard_normal((g.n_dofs, 3))
    R[:, 2] = column(R)
    with pytest.raises(SolveError, match="rank"):
        reduce(A, M, make_basis(R))


# ------------------------------------------------------------------------ steps

def test_implicit_zero_data_stays_zero():
    sys_r = scalar_system(3.0)
    k = make_kernel(0.5, 0.1, 10)
    traj = run_scheme("implicit", sys_r, k, np.zeros(1), lambda _: np.zeros(1))
    assert np.allclose(traj.states, 0.0)


def test_implicit_scalar_first_step():
    lam = 2.0
    sys_r = scalar_system(lam)
    k = make_kernel(0.7, 0.05, 3)
    u1 = step_implicit(sys_r, k, np.array([[1.0]]), np.zeros(1))
    assert u1[0] == pytest.approx(1.0 / (1.0 + k.alpha0 * lam), rel=1e-13)


def test_implicit_no_stiffness_matches_caputo_identity():
    """With A=0 and u^j = j dt, the discrete operator reproduces the exact
    Caputo derivative of t."""
    sys_r = scalar_system(0.0)
    alpha, dt, N = 0.6, 0.02, 40
    k = make_kernel(alpha, dt, N)
    t_grid = dt * np.arange(N + 1)
    # drive the pure fractional ODE with the exact Caputo derivative of t
    forcing = lambda step: np.array(
        [t_grid[step + 1] ** (1 - alpha) / gamma_fn(2 - alpha)])
    traj = run_scheme("implicit", sys_r, k, np.zeros(1), forcing)
    assert np.allclose(traj.states[:, 0], t_grid, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_implicit_l1_converges_at_order_two_minus_alpha(alpha):
    """u = t^2 solves D^alpha u + u = f with f(t) = 2 t^(2-alpha) /
    Gamma(3-alpha) + t^2 (M = A = 1, T = 1); the largest error over the
    time levels falls as dt^(2-alpha) from N = 160 to N = 320.  A forcing
    taken one step early, at t_k, falls only at first order."""
    errs = []
    for N in (160, 320):
        t_grid = np.arange(N + 1) / N
        forcing = lambda step: np.array(
            [2.0 * t_grid[step + 1] ** (2 - alpha) / math.gamma(3 - alpha)
             + t_grid[step + 1] ** 2])
        traj = run_scheme("implicit", scalar_system(1.0),
                          make_kernel(alpha, 1.0 / N, N), np.zeros(1), forcing)
        errs.append(np.max(np.abs(traj.states[:, 0] - t_grid ** 2)))
    rate = np.log2(errs[0] / errs[1])
    assert abs(rate - (2 - alpha)) <= 0.05


def test_explicit_scalar_first_step():
    lam = 3.0
    sys_r = scalar_system(lam)
    k = make_kernel(0.4, 0.01, 3)
    u1 = step_explicit(sys_r, k, np.array([[1.0]]), np.zeros(1))
    assert u1[0] == pytest.approx(1.0 - k.alpha0 * lam, rel=1e-13)


def test_explicit_bounded_at_half():
    """alpha0*lambda = 1/2 is on the stable side of the explicit condition."""
    for alpha in (0.3, 0.9):
        a0 = gamma_fn(2 - alpha)  # dt = 1
        lam = 0.5 / a0
        sys_r = scalar_system(lam)
        k = make_kernel(alpha, 1.0, 1000)
        traj = run_scheme("explicit", sys_r, k, np.array([1.0]),
                          lambda _: np.zeros(1))
        assert not traj.diverged
        assert np.max(np.abs(traj.states)) <= 1.0 + 1e-12


def test_explicit_equals_implicit_without_stiffness():
    sys_r = scalar_system(0.0)
    k = make_kernel(0.5, 0.1, 20)
    rng = np.random.default_rng(2)
    hist = rng.standard_normal((5, 1))
    f = rng.standard_normal(1)
    assert np.allclose(step_implicit(sys_r, k, hist, f),
                       step_explicit(sys_r, k, hist, f), atol=1e-14)


def test_partial_reduces_to_implicit_and_explicit():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((3, 3))
    M = B @ B.T + 3 * np.eye(3)
    A = np.diag([1.0, 2.0, 3.0])
    k = make_kernel(0.5, 0.05, 5)
    hist = rng.standard_normal((4, 3))
    f = rng.standard_normal(3)
    all_implicit = ReducedSystem(M=M, A=A, n1=3)
    all_explicit = ReducedSystem(M=M, A=A, n1=0)
    assert np.allclose(step_partial(all_implicit, k, hist, f),
                       step_implicit(ReducedSystem(M=M, A=A, n1=3), k, hist, f))
    assert np.allclose(step_partial(all_explicit, k, hist, f),
                       step_explicit(ReducedSystem(M=M, A=A, n1=0), k, hist, f))


def test_reduced_system_size_is_its_matrix_size():
    assert ReducedSystem(M=np.eye(3), A=np.eye(3), n1=1).n == 3


@pytest.mark.parametrize("n1", [-1, 4])
def test_reduced_system_rejects_a_split_outside_its_columns(n1):
    with pytest.raises(ValueError, match=r"n1 must lie in \[0, 3\]"):
        ReducedSystem(M=np.eye(3), A=np.eye(3), n1=n1)


def test_partial_two_by_two_hand_elimination():
    a1, a2 = 2.0, 5.0
    sys_r = ReducedSystem(M=np.eye(2), A=np.diag([a1, a2]), n1=1)
    k = make_kernel(0.5, 0.1, 3)
    hist = np.array([[1.0, -2.0]])
    f = np.array([0.3, -0.7])
    h = hist[0]  # history_rhs at k=0 is u^0
    u = step_partial(sys_r, k, hist, f)
    assert u[0] == pytest.approx((h[0] + k.alpha0 * f[0]) / (1 + k.alpha0 * a1), rel=1e-13)
    assert u[1] == pytest.approx(h[1] - k.alpha0 * a2 * h[1] + k.alpha0 * f[1], rel=1e-13)


def test_partial_decouples_with_zero_coupling():
    a1, a2 = 1.5, 4.0
    sys_r = ReducedSystem(M=np.eye(2), A=np.diag([a1, a2]), n1=1)
    k = make_kernel(0.7, 0.05, 20)
    u0 = np.array([1.0, 1.0])
    traj = run_scheme("partial", sys_r, k, u0, lambda _: np.zeros(2))
    ti = run_scheme("implicit", scalar_system(a1), k, np.array([1.0]),
                    lambda _: np.zeros(1))
    te = run_scheme("explicit", scalar_system(a2), k, np.array([1.0]),
                    lambda _: np.zeros(1))
    assert np.allclose(traj.states[:, 0], ti.states[:, 0], atol=1e-12)
    assert np.allclose(traj.states[:, 1], te.states[:, 0], atol=1e-12)


def test_implicit_explicit_first_order_agreement():
    """One step apart by O(alpha0^2 ||A|| ||u0||)."""
    rng = np.random.default_rng(4)
    B = rng.standard_normal((4, 4))
    M = B @ B.T + 4 * np.eye(4)
    A = np.diag([1.0, 2.0, 0.5, 3.0])
    u0 = rng.standard_normal(4)
    for dt in (1e-2, 1e-3):
        k = make_kernel(0.5, dt, 2)
        si = ReducedSystem(M=M, A=A, n1=4)
        se = ReducedSystem(M=M, A=A, n1=4)
        ui = step_implicit(si, k, u0[None], np.zeros(4))
        ue = step_explicit(se, k, u0[None], np.zeros(4))
        bound = 2 * k.alpha0 ** 2 * np.linalg.norm(A, 2) * np.linalg.norm(u0)
        # difference in the M-metric sense; use the M^{-1}A spectral norm
        cond = np.linalg.norm(np.linalg.solve(M, A), 2)
        assert np.linalg.norm(ui - ue) <= 2 * k.alpha0 ** 2 * cond ** 2 * np.linalg.norm(u0)


# Reference bodies of the three schemes, each written out on its own: the
# splitting step must reproduce them bit for bit.  Each solves through
# ReducedSystem.solver, as the steppers do.
def _old_implicit(sys_r, k, hist, f):
    w = history_rhs(k, hist)
    rhs = sys_r.M @ w + k.alpha0 * f
    return sys_r.solver(sys_r.M + k.alpha0 * sys_r.A)(rhs)


def _old_explicit(sys_r, k, hist, f):
    w = history_rhs(k, hist)
    uk = np.asarray(hist)[-1]
    rhs = sys_r.M @ w - k.alpha0 * (sys_r.A @ uk) + k.alpha0 * f
    return sys_r.solver(sys_r.M)(rhs)


def _old_partial(sys_r, k, hist, f):
    n1 = sys_r.n1
    if n1 == sys_r.n:
        return _old_implicit(sys_r, k, hist, f)
    if n1 == 0:
        return _old_explicit(sys_r, k, hist, f)
    a0 = k.alpha0
    w = history_rhs(k, hist)
    u2k = np.asarray(hist)[-1][n1:]
    left = np.asarray(sys_r.M).copy()
    left[:, :n1] += a0 * np.asarray(sys_r.A)[:, :n1]
    rhs = sys_r.M @ w - a0 * (np.asarray(sys_r.A)[:, n1:] @ u2k) + a0 * f
    return sys_r.solver(left)(rhs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), data=st.data(), alpha=st.floats(0.05, 0.95),
       rows=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_splitting_step_equals_the_three_old_bodies(n, data, alpha, rows, seed):
    """The one splitting step gives, bit for bit, what the separate
    implicit, explicit and partially explicit bodies gave."""
    n1 = data.draw(st.integers(0, n), label="n1")
    rng = np.random.default_rng(seed)
    B, C = rng.standard_normal((2, n, n))
    M, A = B @ B.T + n * np.eye(n), C @ C.T + n * np.eye(n)
    k = make_kernel(alpha, 10 ** rng.uniform(-4, -1), 6)
    hist = rng.standard_normal((rows, n))
    f = rng.standard_normal(n)
    for step, old in ((step_implicit, _old_implicit),
                      (step_explicit, _old_explicit),
                      (step_partial, _old_partial)):
        new_sys, old_sys = (ReducedSystem(M=M, A=A, n1=n1) for _ in "ab")
        assert np.array_equal(step(new_sys, k, hist, f), old(old_sys, k, hist, f))


@pytest.mark.parametrize("step, old", [(step_implicit, _old_implicit),
                                       (step_explicit, _old_explicit)])
def test_splitting_step_equals_the_old_bodies_on_the_sparse_fine_space(step, old):
    g = t.build_grids(3, 4)
    rng = np.random.default_rng(8)
    fld = assembly.PermeabilityField(np.where(rng.random(g.n_cells) < 0.3, 1e4, 1.0))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    k = make_kernel(0.7, 1e-3, 4)
    hist = rng.standard_normal((3, g.n_dofs))
    f = rng.standard_normal(g.n_dofs)
    new_sys, old_sys = (ReducedSystem(M=M, A=A, n1=g.n_dofs) for _ in "ab")
    assert np.array_equal(step(new_sys, k, hist, f), old(old_sys, k, hist, f))


def test_one_factorization_per_split_and_alpha0(monkeypatch):
    calls = []
    solver = ReducedSystem.solver

    def counting(self, matrix):
        calls.append(matrix)
        return solver(self, matrix)

    monkeypatch.setattr(ReducedSystem, "solver", counting)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((4, 4))
    M, A = B @ B.T + 4 * np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0])
    u0, zero = np.ones(4), (lambda _: np.zeros(4))
    k1, k2 = make_kernel(0.5, 1e-3, 8), make_kernel(0.8, 1e-3, 8)
    split = ReducedSystem(M=M, A=A, n1=2)
    for scheme in ("partial", "partial", "implicit", "explicit"):
        run_scheme(scheme, split, k1, u0, zero)
    assert len(calls) == 3          # one per split: n_imp = 2, 4 and 0
    run_scheme("partial", split, k2, u0, zero)
    assert len(calls) == 4          # a new alpha0 factors again
    # A system without a second block: the splitting is the implicit scheme
    # and reuses its factorization; one without a first block is explicit.
    for n1, first in ((4, "implicit"), (0, "explicit")):
        calls.clear()
        sys_r = ReducedSystem(M=M, A=A, n1=n1)
        run_scheme(first, sys_r, k1, u0, zero)
        run_scheme("partial", sys_r, k1, u0, zero)
        assert len(calls) == 1


# ------------------------------------------------------------------- run_scheme

def test_run_scheme_unknown_name():
    with pytest.raises(ValueError):
        run_scheme("magic", scalar_system(1.0), make_kernel(0.5, 0.1, 2),
                   np.zeros(1), lambda _: np.zeros(1))


def test_divergence_guard_reports():
    a0 = gamma_fn(2 - 0.5)
    lam = 3.0 / a0  # alpha0*lambda = 3, far beyond the explicit threshold
    sys_r = scalar_system(lam)
    k = make_kernel(0.5, 1.0, 1000)
    traj = run_scheme("explicit", sys_r, k, np.array([1.0]), lambda _: np.zeros(1))
    assert traj.diverged
    assert 0 < traj.diverged_step <= 1000
    assert traj.states.shape[0] == traj.diverged_step + 1


def test_explicit_fine_grid_high_contrast_diverges():
    g = t.build_grids(5, 10)
    rng = np.random.default_rng(5)
    fld = assembly.PermeabilityField(np.where(rng.random(g.n_cells) < 0.3, 1e5, 1.0))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    sys_r = ReducedSystem(M=M, A=A, n1=g.n_dofs)
    k = make_kernel(0.9, 2e-5, 100)
    u0 = np.zeros(g.n_dofs)
    f = assembly.load_vector(g, lambda x, y, tt: np.ones_like(x), 0.0)
    traj = run_scheme("explicit", sys_r, k, u0, lambda _: f)
    assert traj.diverged


def test_energy_envelope_zero_forcing():
    g = t.build_grids(3, 4)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    sys_r = ReducedSystem(M=M, A=A, n1=g.n_dofs)
    k = make_kernel(0.5, 1e-3, 50)
    rng = np.random.default_rng(6)
    u0 = rng.standard_normal(g.n_dofs)
    traj = run_scheme("implicit", sys_r, k, u0, lambda _: np.zeros(g.n_dofs))
    en = [u @ (A @ u) for u in traj.states]
    assert en[-1] <= en[0] + 1e-12 * en[0]


_STEPS = {"implicit": step_implicit, "explicit": step_explicit,
          "partial": step_partial}


@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(sorted(_STEPS)), N=st.integers(1, 2 * HISTORY_BLOCK + 7),
       n=st.integers(1, 5), alpha=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_run_scheme_blocked_history_matches_a_full_sum_loop(scheme, N, n, alpha, seed):
    """run_scheme sums the history a block at a time; a loop that hands
    every step its whole history (the full sum) agrees to 1e-12 across
    block boundaries, for all three schemes."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    M = G @ G.T + n * np.eye(n)
    P = rng.standard_normal((n, n))
    A = 0.1 * P @ P.T / np.linalg.norm(P) ** 2 * np.linalg.eigvalsh(M)[0]
    sys_r = ReducedSystem(M=M, A=A, n1=int(rng.integers(0, n + 1)))
    k = make_kernel(alpha, 0.01, N)
    loads = rng.standard_normal((N, n))
    u0 = rng.standard_normal(n)
    traj = run_scheme(scheme, sys_r, k, u0, lambda s: loads[s])
    states = [u0]
    for s in range(N):
        states.append(_STEPS[scheme](sys_r, k, np.array(states), loads[s]))
    states = np.array(states)
    assert not traj.diverged and traj.history_ops == N * (N + 1) // 2
    assert np.max(np.abs(traj.states - states)) <= 1e-12 * np.max(np.abs(states))


def test_singular_dense_system_raises_solve_error():
    """A dense left matrix with an exactly zero pivot is a failed solve, not
    a divergence reported on the trajectory."""
    sys_r = ReducedSystem(M=np.ones((2, 2)), A=np.eye(2), n1=0)
    with pytest.raises(SolveError, match="diagonal number 2 is exactly zero"):
        run_scheme("explicit", sys_r, make_kernel(0.5, 0.01, 5), np.ones(2),
                   lambda _: np.zeros(2))


def test_history_work_is_quadratic():
    sys_r = scalar_system(1.0)
    N = 64
    k = make_kernel(0.5, 0.01, N)
    traj = run_scheme("implicit", sys_r, k, np.ones(1), lambda _: np.zeros(1))
    assert traj.history_ops == N * (N + 1) // 2


# --------------------------------------------------------------- fine reference

def test_fine_reference_matches_identity_run():
    g = t.build_grids(2, 3)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    f = lambda x, y, tt: np.sin(np.pi * x) * np.sin(np.pi * y)
    dt = 1e-3
    ref = fine_reference(g, A, M, 0.5, dt, f, 10)
    sys_r = ReducedSystem(M=M, A=A, n1=g.n_dofs)
    k = make_kernel(0.5, dt, 10)
    loads = lambda step: assembly.load_vector(g, f, (step + 1) * dt)
    traj = run_scheme("implicit", sys_r, k, np.zeros(g.n_dofs), loads)
    assert np.allclose(ref.states, traj.states, atol=1e-12)


def test_fine_reference_zero_data():
    g = t.build_grids(2, 2)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    ref = fine_reference(g, A, M, 0.5, 1e-3, lambda x, y, tt: np.zeros_like(x), 5)
    assert np.allclose(ref.states, 0.0)


def test_fine_reference_rejects_a_wrong_factorization(monkeypatch):
    """A factorization of 2K solves every step to a backward error near 1/2,
    which the fine solve's contract must reject."""
    g = t.build_grids(2, 3)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    f = lambda x, y, tt: np.sin(np.pi * x) * np.sin(np.pi * y)
    monkeypatch.setattr(schemes, "_sparse_lu", lambda K: _sparse_lu(2.0 * K))
    with pytest.raises(SolveError, match="column 0: backward error"):
        fine_reference(g, A, M, 0.5, 1e-3, f, 3)


# ------------------------------------------------------------------- trajectory

def _round_trip(traj, path, header):
    """Dump ``traj``: its first line is ``header``, and ``np.loadtxt``, which
    skips that ``#`` line, reads the states back exactly (``%.17g``)."""
    traj.save(path)
    assert path.read_text().splitlines()[0] == header
    back = np.loadtxt(path, ndmin=2)
    assert np.array_equal(back, traj.states)
    return back


def test_trajectory_save_load_round_trip(tmp_path):
    sys_r = scalar_system(2.0)
    k = make_kernel(0.3, 0.02, 8)
    traj = run_scheme("implicit", sys_r, k, np.array([1.0]),
                      lambda _: np.ones(1), space="cem")
    _round_trip(traj, tmp_path / "traj.txt",
                "# space=cem alpha=0.29999999999999999 dt=0.02 diverged=0 "
                "diverged_step=-1")


def test_trajectory_save_load_round_trip_diverged(tmp_path):
    # explicit far above its step bound: blows up within a few steps
    sys_r = scalar_system(1e6)
    k = make_kernel(0.5, 0.1, 50)
    traj = run_scheme("explicit", sys_r, k, np.array([1.0]),
                      lambda _: np.zeros(1), space="scem")
    assert traj.diverged and 0 < traj.diverged_step < 50
    back = _round_trip(traj, tmp_path / "traj.txt",
                       "# space=scem alpha=0.5 dt=0.10000000000000001 "
                       f"diverged=1 diverged_step={traj.diverged_step}")
    assert back.shape[0] == traj.diverged_step + 1
