"""Tests for lambda_max, the subspace constant, dt bounds, energy audits,
and the contrast sweep."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tfmultiscale as t
from tfmultiscale import assembly, harness, spaces
from tfmultiscale.fractional import make_kernel
from tfmultiscale.linalg import gamma_fn
from tfmultiscale.schemes import ReducedSystem, reduce, run_scheme
from tfmultiscale.stability import (EnergyAudit, build_report, contrast_sweep,
                                    dt_max_explicit, dt_max_partial,
                                    energy_audit, estimate_gamma, lambda_max,
                                    sweep_to_csv)


def random_spd(n, rng, scale=1.0):
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T + n * np.eye(n))


# ------------------------------------------------------------------- lambda_max

def test_lambda_max_equal_matrices():
    rng = np.random.default_rng(0)
    M = random_spd(5, rng)
    assert lambda_max(M, M) == pytest.approx(1.0, rel=1e-10)


def test_lambda_max_diagonal():
    assert lambda_max(np.diag([1.0, 9.0]), np.eye(2)) == pytest.approx(9.0)


def test_lambda_max_matches_dense_oracle():
    rng = np.random.default_rng(1)
    A = random_spd(10, rng)
    M = random_spd(10, rng)
    import scipy.linalg as sla
    oracle = max(sla.eigh(A, M, eigvals_only=True))
    assert lambda_max(A, M) == pytest.approx(oracle, rel=1e-10)


# --------------------------------------------------------------- estimate_gamma

def test_gamma_orthogonal_blocks():
    rng = np.random.default_rng(3)
    gamma, min_ratio, _ = estimate_gamma(random_spd(3, rng), np.zeros((3, 2)),
                                         random_spd(2, rng))
    assert gamma == 0.0
    assert min_ratio == pytest.approx(1.0, rel=1e-10)


def test_gamma_identical_subspace_degenerate():
    # V1 = V2 = span of the same vector: gamma = 1, condition degenerate
    gamma, min_ratio, _ = estimate_gamma(np.array([[1.0]]), np.array([[1.0]]),
                                         np.array([[1.0]]))
    assert gamma == pytest.approx(1.0, abs=1e-12)
    assert min_ratio == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        dt_max_partial(0.5, gamma, 1.0)


def test_gamma_vs_grid_search_oracle():
    """Two random 2-dim subspaces of a 6-dim space: maximize the L2
    correlation over a fine angular grid (brute-force oracle)."""
    rng = np.random.default_rng(4)
    U = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    M11 = U.T @ U
    M22 = V.T @ V
    M12 = U.T @ V
    gamma, _, _ = estimate_gamma(M11, M12, M22)
    best = 0.0
    ths = np.linspace(0, np.pi, 721)
    for a in ths:
        u = U @ np.array([np.cos(a), np.sin(a)])
        for b in ths:
            v = V @ np.array([np.cos(b), np.sin(b)])
            best = max(best, abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    assert gamma == pytest.approx(best, abs=1e-4)


def test_gamma_direct_condition_invariant():
    """min ||u1+u2||^2/||u2||^2 >= 2(1-gamma_eff^2) - tol by construction,
    and equals 1 - gamma^2 for the cosine."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = random_spd(7, rng)
        M11, M12, M22 = M[:4, :4], M[:4, 4:], M[4:, 4:]
        gamma, min_ratio, gamma_eff = estimate_gamma(M11, M12, M22)
        assert min_ratio >= 2 * (1 - gamma_eff ** 2) - 1e-8
        assert min_ratio == pytest.approx(1 - gamma ** 2, abs=1e-8)
        assert 0.0 <= gamma <= 1.0


@pytest.fixture(scope="module")
def kappa_scaled_report():
    """The report of contrast-sweep's geometry 2 at contrast 1e4 with kappa
    scaled by c, memoized per c."""
    grid = t.build_grids(4, 6)
    mask = harness.channel_geometry(24, 24, seed=2).ravel()
    reports = {}

    def report(c):
        if c not in reports:
            kappa = assembly.PermeabilityField(c * np.where(mask, 1e4, 1.0))
            cs = spaces.build_spaces(grid, kappa, 3, 3, 2)
            reports[c] = build_report(reduce(cs.A, cs.M, cs.combined), 0.9)
        return reports[c]
    return report


@settings(max_examples=12, deadline=None)
@given(exponent=st.floats(-12.0, 12.0))
@example(exponent=12.0)
@example(exponent=8.0)
@example(exponent=-12.0)
def test_report_scales_with_kappa(kappa_scaled_report, exponent):
    """Scaling kappa by c scales both lambdas by c and leaves the subspace
    angle alone; the reduced rank check must not reject the basis, whose V1
    columns' norms scale as c^(-1/2).  lambda_full carries the round-off of
    the second basis's saddle solves, which grows as c falls below 1e-9
    (3.4e-10 measured at c = 2^-37), so it is held to 1e-9."""
    c = 10.0 ** exponent
    one, rep = kappa_scaled_report(1.0), kappa_scaled_report(c)
    assert rep.lambda_max_full / c == pytest.approx(one.lambda_max_full, rel=1e-9)
    assert rep.lambda_max_v2 / c == pytest.approx(one.lambda_max_v2, rel=1e-10)
    assert rep.gamma == pytest.approx(one.gamma, rel=1e-10)
    assert rep.min_ratio == pytest.approx(one.min_ratio, rel=1e-10)


# -------------------------------------------------------------------- dt bounds

def test_dt_explicit_closed_form():
    assert dt_max_explicit(0.5, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_dt_explicit_power_law():
    for alpha in (0.3, 0.9):
        r = dt_max_explicit(alpha, 4.0) / dt_max_explicit(alpha, 1.0)
        assert r == pytest.approx(4.0 ** (-1.0 / alpha), rel=1e-12)


def test_dt_explicit_zero_lambda_unbounded():
    assert dt_max_explicit(0.5, 0.0) == np.inf


def test_dt_partial_closed_form():
    assert dt_max_partial(0.5, 0.0, 1.0) == pytest.approx(4.0 / np.pi, rel=1e-12)


def test_dt_partial_gamma_limit():
    vals = [dt_max_partial(0.5, gmm, 1.0) for gmm in (0.0, 0.9, 0.999, 0.999999)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-11


def test_dt_partial_rejects_bad_gamma():
    with pytest.raises(ValueError):
        dt_max_partial(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        dt_max_partial(0.5, -0.1, 1.0)


def test_dt_identity_between_bounds():
    for alpha in (0.3, 0.5, 0.9):
        for lam in (1.0, 37.5):
            assert dt_max_partial(alpha, 0.0, lam) == pytest.approx(
                2.0 ** (1.0 / alpha) * dt_max_explicit(alpha, lam), rel=1e-12)


# ----------------------------------------------------------------- energy audit

def test_energy_audit_zero_data():
    from tfmultiscale.schemes import Trajectory
    traj = Trajectory(space="x", alpha=0.5, dt=0.1, states=np.zeros((4, 2)))
    k = make_kernel(0.5, 0.1, 3)
    aud = energy_audit(traj, np.eye(2), np.zeros(3), k)
    assert aud.lhs == 0.0 and aud.rhs == 0.0 and aud.slack == 0.0


def test_energy_audit_scaling_invariance():
    g = t.build_grids(2, 4)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    A = assembly.assemble(g, fld, "stiffness")
    M = assembly.assemble(g, None, "mass")
    sys_r = ReducedSystem(M=M, A=A, n1=g.n_dofs)
    k = make_kernel(0.5, 1e-3, 20)
    rng = np.random.default_rng(6)
    f = assembly.load_vector(g, lambda x, y, tt: np.sin(np.pi * x), 0.0)
    import scipy.sparse.linalg as spla
    fn2 = f @ spla.spsolve(M.tocsc(), f)
    u0 = rng.standard_normal(g.n_dofs)
    c = 3.0
    t1 = run_scheme("implicit", sys_r, k, u0, lambda _: f)
    t2 = run_scheme("implicit", sys_r, k, c * u0, lambda _: c * f)
    a1 = energy_audit(t1, A, np.full(20, fn2), k)
    a2 = energy_audit(t2, A, np.full(20, c * c * fn2), k)
    assert a2.slack == pytest.approx(c * c * a1.slack, rel=1e-9)


def test_energy_audit_negative_before_guard_on_violated_explicit():
    """Explicit run at 4x the allowed step: the audit flags negative slack
    even though the guard has not fired yet."""
    alpha = 0.5
    lam = 10.0
    dtmax = dt_max_explicit(alpha, lam)
    dt = 4.0 ** (1.0 / alpha) * dtmax  # alpha0*lambda = 2
    N = 30
    k = make_kernel(alpha, dt, N)
    sys_r = ReducedSystem(M=np.array([[1.0]]), A=np.array([[lam]]), n1=1)
    traj = run_scheme("explicit", sys_r, k, np.array([1.0]), lambda _: np.zeros(1))
    assert not traj.diverged  # guard has not fired in 30 steps
    aud = energy_audit(traj, np.array([[lam]]), np.zeros(N), k)
    assert aud.slack < 0


# ------------------------------------------------------- stability theorem

@functools.cache
def sweep_system(geometry, contrast):
    """Reduced combined system of the contrast-sweep grid (4x4 coarse, six
    fine cells per element, L = J = 3, two layers) on channel geometry
    ``geometry`` at ``contrast``, built once per pair."""
    g = t.build_grids(4, 6)
    mask = harness.channel_geometry(g.n_fine, g.n_fine, seed=geometry).ravel()
    fld = assembly.PermeabilityField(np.where(mask, contrast, 1.0))
    cs = spaces.build_spaces(g, fld, 3, 3, 2)
    return reduce(cs.A, cs.M, cs.combined)


@settings(max_examples=20, deadline=None)
@given(geometry=st.integers(0, 9), contrast=st.sampled_from([1e2, 1e4, 1e6]),
       alpha=st.sampled_from([0.3, 0.5, 0.9]), seed=st.integers(0, 2**32 - 1))
def test_predicted_steps_are_stable_on_the_sweep_grid(geometry, contrast,
                                                      alpha, seed):
    """The partially explicit and explicit schemes at 0.99x their predicted
    maximal steps, 400 steps from a random u0 with zero load: no divergence,
    no growth of the M-norm and a non-negative energy-audit slack.  The
    bounds are sufficient, not sharp: at alpha 0.9 the observed thresholds
    are 4.5x the explicit bound on every system and 2.7x to 79x the
    partially explicit one, so a bound 5x too large fails here."""
    sys_r = sweep_system(geometry, contrast)
    rep = build_report(sys_r, alpha)
    u0 = np.random.default_rng(seed).standard_normal(sys_r.n)
    zero, steps = np.zeros(sys_r.n), 400
    for scheme, dt in (("partial", rep.dt_max_partial),
                       ("explicit", rep.dt_max_explicit)):
        kern = make_kernel(alpha, 0.99 * dt, steps)
        traj = run_scheme(scheme, sys_r, kern, u0, lambda _: zero)
        assert not traj.diverged, (scheme, traj.diverged_step)
        m_norm = np.einsum("ki,ij,kj->k", traj.states, sys_r.M, traj.states)
        assert m_norm.max() <= (1.0 + 1e-4) * m_norm[0], scheme
        assert energy_audit(traj, sys_r.A, np.zeros(steps), kern).slack >= 0.0, scheme


# --------------------------------------------------------- report / sweep paths

def fixed_channel_mask(nf):
    mask = np.zeros((nf, nf), dtype=bool)
    q = max(nf // 5, 1)
    mask[q, 1:nf - 1] = True
    mask[2 * q, 2:nf - 2] = True
    mask[3 * q, 1:nf - 1] = True
    mask[q + 2:3 * q, 2 * q + 1] = True
    return mask


def test_build_report_fields_consistent():
    g = t.build_grids(5, 4)
    fld = assembly.PermeabilityField(
        np.where(fixed_channel_mask(g.n_fine).ravel(), 1e4, 1.0))
    cs = t.build_spaces(g, fld, 2, 1, 2)
    rep = build_report(reduce(cs.A, cs.M, cs.combined), 0.9)
    assert rep.lambda_max_full >= rep.lambda_max_v2 > 0
    assert 0 <= rep.gamma < 1
    assert rep.dt_max_explicit == pytest.approx(
        dt_max_explicit(0.9, rep.lambda_max_full), rel=1e-12)
    assert rep.dt_max_partial == pytest.approx(
        dt_max_partial(0.9, rep.gamma, rep.lambda_max_v2), rel=1e-12)


def test_report_round_trip_text(tmp_path):
    g = t.build_grids(5, 4)
    fld = assembly.PermeabilityField(
        np.where(fixed_channel_mask(g.n_fine).ravel(), 1e4, 1.0))
    cs = t.build_spaces(g, fld, 2, 1, 2)
    rep = build_report(reduce(cs.A, cs.M, cs.combined), 0.5)
    p = tmp_path / "report.txt"
    rep.save(p)
    text = p.read_text()
    for key in ("lambda_max_full", "gamma", "dt_max_partial", "alpha"):
        assert key in text


def test_contrast_sweep_homogversion():
    g = t.build_grids(5, 4)
    mask = fixed_channel_mask(g.n_fine)
    rows = contrast_sweep(g, mask, [1.0], 0.9, L=2, J=1, layers=2)
    assert rows[0]["lambda_full"] / rows[0]["lambda_v2"] < 10


def test_contrast_sweep_lambda_growth(tmp_path):
    # Through-channels aligned with coarse rows are resolved by the coarse
    # space, so the reduced spectrum stays contrast-independent for them;
    # a geometry with isolated inclusions is what drives lambda growth.
    g = t.build_grids(5, 10)
    mask = harness.channel_geometry(g.n_fine, g.n_fine, seed=3)
    rows = contrast_sweep(g, mask, [1e2, 1e6], 0.9, L=3, J=3, layers=2)
    lam = [r["lambda_full"] for r in rows]
    assert lam[1] / lam[0] > 1e3
    assert lam[1] / lam[0] < 2 * 1e4  # within 2x of linear growth in contrast
    v2 = [r["lambda_v2"] for r in rows]
    assert max(v2) / min(v2) <= 4.0
    out = tmp_path / "sweep.csv"
    sweep_to_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("contrast,lambda_full")
    assert len(lines) == 3


@pytest.mark.parametrize("side", [30, 20])
def test_contrast_sweep_rejects_a_mask_of_another_size(side):
    """A 30x30 or 20x20 mask on the 24x24 sweep grid is rejected before the
    partition of unity reads it, with the message assemble gives."""
    g = t.build_grids(4, 6)
    mask = harness.channel_geometry(side, side, seed=0)
    message = f"^field has {side * side} cells, grid has 576$"
    with pytest.raises(ValueError, match=message):
        contrast_sweep(g, mask, [1e2], 0.9, layers=2)
    with pytest.raises(ValueError, match=message):
        assembly.assemble(g, assembly.PermeabilityField(mask.ravel() + 1.0),
                          "stiffness")


# The eight symmetries of the square, acting on a (ny, nx) mask.
SQUARE_SYMMETRIES = {
    "identity": lambda m: m, "flip x": lambda m: m[:, ::-1],
    "flip y": lambda m: m[::-1, :], "transpose": lambda m: m.T,
    "anti-transpose": lambda m: m[::-1, ::-1].T, "rotate 90": np.rot90,
    "rotate 180": lambda m: np.rot90(m, 2), "rotate 270": lambda m: np.rot90(m, 3),
}


@pytest.mark.parametrize("geometry", [0, 2, 7])
def test_contrast_sweep_is_invariant_under_the_symmetries_of_the_square(geometry):
    """Reflecting or rotating the field maps the problem onto itself, so
    every symmetry leaves the sweep's rows unchanged up to round-off; a
    wrong patch, skeleton or boundary index map breaks the symmetry.  On the
    sweep grid (4x4 coarse, refine 6, two layers, alpha 0.9) geometries 0-9
    agree to 1.1e-13 at contrast 1e2 and 1.6e-11 at 1e4.  At 1e6 they
    differ by up to 9.8e-7, the local eigensolves' round-off (ROADMAP item 1), so
    1e6 is not checked."""
    g = t.build_grids(4, 6)
    mask = harness.channel_geometry(g.n_fine, g.n_fine, seed=geometry)
    keys = ("lambda_full", "lambda_v2", "gamma", "dt_partial")
    sweeps = {name: contrast_sweep(g, sym(mask), [1e2, 1e4], 0.9, layers=2)
              for name, sym in SQUARE_SYMMETRIES.items()}
    for name, rows in sweeps.items():
        for row, ref in zip(rows, sweeps["identity"]):
            for key in keys:
                assert row[key] == pytest.approx(ref[key], rel=1e-10, abs=0.0), (
                    name, row["contrast"], key)


def test_sweep_csv_bytes_match_a_12_digit_format(tmp_path):
    """sweep_to_csv writes what "{:.12g}" gives, value by value, under the
    header; no rows give the header alone."""
    cols = ["contrast", "lambda_full", "lambda_v2", "gamma", "dt_exp", "dt_partial"]
    edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
            float("inf"), float("-inf"), float("nan"), 0.1, 1.0 / 3.0, 1e16, 123456789012.5]
    rows = [dict(zip(cols, edge[k:k + 6])) for k in (0, 6)]
    for written in (rows, []):
        out = tmp_path / "sweep.csv"
        sweep_to_csv(written, out)
        oracle = ",".join(cols) + "\n" + "".join(
            ",".join(f"{row[c]:.12g}" for c in cols) + "\n" for row in written)
        assert out.read_bytes() == oracle.encode()


def test_contrast_sweep_rejects_nonpositive(monkeypatch):
    """Every contrast is checked before any space is built."""
    built = []
    monkeypatch.setattr(spaces, "build_spaces", lambda *a: built.append(a))
    g = t.build_grids(5, 4)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="contrasts must be finite and positive"):
            contrast_sweep(g, fixed_channel_mask(g.n_fine), [1e2, bad], 0.9)
    assert built == []
