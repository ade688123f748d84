"""Acceptance suite: the ten headline criteria of the package.

Each test prints exactly one PASS/FAIL verdict line (run pytest with -s or
read captured output on failure).  Criteria 7 and 8 share one full-scale
pipeline fixture; everything else runs on desk-scale problems.
"""

import numpy as np
import pytest
from types import SimpleNamespace

import tfmultiscale as t
from tfmultiscale import assembly, harness, spaces
from tfmultiscale.assembly import PermeabilityField
from tfmultiscale.fractional import make_kernel
from tfmultiscale.grid import build_grids
from tfmultiscale.harness import channel_geometry, error_series, experiment_config, gen_forcing
from tfmultiscale.linalg import _eig_smallest, gamma_fn, kkt_solve
from tfmultiscale.schemes import ReducedSystem, fine_reference, reduce, run_scheme
from tfmultiscale.stability import (build_report, contrast_sweep,
                                    dt_max_partial, energy_audit)

from test_fractional import caputo
from test_linalg import charpoly_eigs_bisect, kkt_dense_oracle, random_spd
from test_schemes import gram_schmidt_m, make_basis
from test_spaces import aux_spaces, coarse_bases, vectors


def _verdict(num, name, ok, detail):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def desk_spaces():
    """Desk-scale configuration: coarse 5x5, refine 10, contrast 1e5,
    three functions per element in both spaces, two oversampling layers."""
    g = build_grids(5, 10)
    rng = np.random.default_rng(7)
    mask = rng.random(g.n_cells) < 0.25
    fld = PermeabilityField(np.where(mask, 1e5, 1.0))
    return g, fld, spaces.build_spaces(g, fld, 3, 3, 2)


@pytest.fixture(scope="module")
def desk():
    g, fld, cs = desk_spaces()
    return SimpleNamespace(g=g, fld=fld, cs=cs)


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_l1_exact_on_linear():
    worst = 0.0
    N, dt = 100, 0.01
    for alpha in (0.3, 0.5, 0.9):
        kern = make_kernel(alpha, dt, N)
        times = dt * np.arange(N + 1)
        approx = caputo(kern, times)
        exact = times[1:] ** (1 - alpha) / gamma_fn(2 - alpha)
        worst = max(worst, float(np.max(np.abs(approx - exact) / exact)))
    _verdict(1, "L1 exact on u(t)=t", worst <= 1e-10,
             f"max rel err {worst:.3e} <= 1e-10")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_weight_identities():
    worst = 0.0
    ok = True
    K = 10 ** 4
    for alpha in (0.3, 0.5, 0.9):
        kern = make_kernel(alpha, 1.0, K)
        b = kern.b[:K + 1]
        ok &= b[0] == 1.0
        ok &= bool(np.all(np.diff(b) < 0.0))
        sums = np.cumsum(b)
        expect = (np.arange(K + 1) + 1.0) ** (1 - alpha)
        worst = max(worst, float(np.max(np.abs(sums - expect) / expect)))
    ok &= worst <= 1e-12
    _verdict(2, "L1 weight identities", ok,
             f"b_0=1, strict decrease, partial-sum rel err {worst:.3e} <= 1e-12")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_implicit_unconditional_stability():
    g = build_grids(5, 10)
    M = assembly.assemble(g, None, "mass")
    f = gen_forcing("smooth")
    xy = g.node_coords()[g.interior_nodes()]
    fvals = f(xy[:, 0], xy[:, 1], 0.0)
    fnorm_sq = float(fvals @ (M @ fvals))
    rng = np.random.default_rng(42)
    N = 50
    worst = np.inf
    runs = 0
    for _ in range(5):
        mask = rng.random(g.n_cells) < 0.3
        fld = PermeabilityField(np.where(mask, 1e5, 1.0))
        A = assembly.assemble(g, fld, "stiffness")
        sys_r = ReducedSystem(M=M, A=A, n1=g.n_dofs)
        for alpha in (0.3, 0.9):
            for dt in (2e-5, 2e-3):
                kern = make_kernel(alpha, dt, N)
                F = assembly.load_vector(g, f, dt)
                traj = run_scheme("implicit", sys_r, kern,
                                  np.zeros(g.n_dofs), lambda _: F)
                aud = energy_audit(traj, A, np.full(N, fnorm_sq), kern)
                worst = min(worst, aud.slack)
                runs += 1
    _verdict(3, "implicit energy audit", worst >= 0.0 and runs == 20,
             f"min slack {worst:.3e} >= 0 over {runs} runs")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_explicit_threshold():
    ok = True
    details = []
    for alpha in (0.3, 0.5, 0.9):
        for dim in (1, 10):
            lam = np.linspace(0.1, 1.0, dim) if dim > 1 else np.array([1.0])
            A = np.diag(lam)
            M = np.eye(dim)
            u0 = np.ones(dim)
            for target, expect_diverge in ((0.5, False), (2.0, True)):
                dt = (target / gamma_fn(2 - alpha)) ** (1 / alpha)
                kern = make_kernel(alpha, dt, 1000)
                sys_r = ReducedSystem(M=M, A=A, n1=dim)
                traj = run_scheme("explicit", sys_r, kern, u0,
                                  lambda _: np.zeros(dim))
                if expect_diverge:
                    ok &= traj.diverged and traj.diverged_step <= 1000
                    if dim == 10:
                        details.append(f"a={alpha} fires@{traj.diverged_step}")
                else:
                    ok &= (not traj.diverged
                           and np.all(np.isfinite(traj.states)))
    _verdict(4, "explicit threshold sharpness", ok,
             "bounded at a0*lam=0.5, guard at 2.0: " + ", ".join(details))


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_partial_scheme_condition(desk):
    sys_r = reduce(desk.cs.A, desk.cs.M, desk.cs.combined)
    rep = build_report(sys_r, 0.9)
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(sys_r.n)
    zero = lambda _: np.zeros(sys_r.n)

    kern = make_kernel(0.9, 0.5 * rep.dt_max_partial, 200)
    stable = run_scheme("partial", sys_r, kern, u0, zero)
    aud = energy_audit(stable, sys_r.A, np.zeros(200), kern)

    kern8 = make_kernel(0.9, 8.0 * rep.dt_max_partial, 1000)
    unstable = run_scheme("partial", sys_r, kern8, u0, zero)

    ok = (not stable.diverged and aud.slack >= 0.0 and unstable.diverged)
    _verdict(5, "partial-scheme stability condition", ok,
             f"dt_max={rep.dt_max_partial:.3e}; at 0.5x slack "
             f"{aud.slack:.3e} >= 0; at 8x guard at step "
             f"{unstable.diverged_step}")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_contrast_independence():
    g = build_grids(5, 10)
    mask = channel_geometry(g.n_fine, g.n_fine, seed=3)
    alpha = 0.9
    rows = contrast_sweep(g, mask, [1e2, 1e4, 1e6], alpha, L=3, J=3, layers=2)
    lam_full = [r["lambda_full"] for r in rows]
    lam_v2 = [r["lambda_v2"] for r in rows]
    dt_p = [r["dt_partial"] for r in rows]
    growth = lam_full[-1] / lam_full[0]
    v2_ratio = max(lam_v2) / min(lam_v2)
    dt_ratio = max(dt_p) / min(dt_p)
    ok = growth >= 1e3 and v2_ratio <= 4.0 and dt_ratio <= 4.0 ** (1 / alpha)
    _verdict(6, "contrast independence of the split space", ok,
             f"lambda_full growth {growth:.3g} >= 1e3, lambda_v2 ratio "
             f"{v2_ratio:.3g} <= 4, dt_partial ratio {dt_ratio:.3g} "
             f"<= {4.0 ** (1 / alpha):.3g}")


# ------------------------------------------------- criteria 7 & 8 (full scale)

@pytest.fixture(scope="module")
def paper():
    """Full-scale pipeline: H=1/10, h=1/100, T=0.01, dt=2e-5, fine step
    dt/5, contrast 1e5, smooth forcing, alpha=0.9."""
    cfg = experiment_config(1)
    g = build_grids(cfg.coarse_n, cfg.refine)
    fld = harness.gen_field(nx=g.n_fine, ny=g.n_fine, **cfg.field)
    forcing = gen_forcing("smooth")
    cs = spaces.build_spaces(g, fld, cfg.L, cfg.J, cfg.layers)
    A, M, both = cs.A, cs.M, cs.combined
    basis1, _ = coarse_bases(cs)
    sys_cem = reduce(A, M, basis1)
    sys_both = reduce(A, M, both)
    report = build_report(sys_both, cfg.alpha)

    N = cfg.n_steps
    F_fine = assembly.load_vector(g, forcing, cfg.dt)
    load_cem = basis1.R.T @ F_fine
    load_both = both.R.T @ F_fine
    kern = make_kernel(cfg.alpha, cfg.dt, N)
    runs = {
        "cem": run_scheme("implicit", sys_cem, kern,
                          np.zeros(sys_cem.n), lambda _: load_cem),
        "tildeU": run_scheme("implicit", sys_both, kern,
                             np.zeros(sys_both.n), lambda _: load_both),
        "scem": run_scheme("partial", sys_both, kern,
                           np.zeros(sys_both.n), lambda _: load_both),
    }
    ref = fine_reference(g, A, M, cfg.alpha, cfg.dt_fine, forcing,
                         N * cfg.stride)
    bases = {"cem": basis1, "tildeU": both, "scem": both}
    errors = error_series({name: (traj, bases[name]) for name, traj
                           in runs.items() if not traj.diverged}, ref, A, M)
    return SimpleNamespace(cfg=cfg, report=report, sys_both=sys_both,
                           load_both=load_both, runs=runs, errors=errors)


def test_criterion_07_protocol_reproduction(paper):
    es = paper.errors
    ok = set(es) == {"cem", "tildeU", "scem"}
    detail = []
    if ok:
        for attr, label in (("err_l2", "L2"), ("err_energy", "energy")):
            e_cem = getattr(es["cem"], attr)[-1]
            e_til = getattr(es["tildeU"], attr)[-1]
            e_sc = getattr(es["scem"], attr)[-1]
            rel = abs(e_sc - e_til) / e_til
            ok &= e_sc < e_cem and rel <= 0.25
            detail.append(f"{label}: scem {e_sc:.4g} < cem {e_cem:.4g}, "
                          f"|scem-tildeU|/tildeU {rel:.3g} <= 0.25")
    _verdict(7, "full-scale protocol reproduction", ok, "; ".join(detail) or
             "a scheme diverged unexpectedly")


def test_criterion_08_alpha_instability(paper):
    rep = paper.report
    dt = paper.cfg.dt
    ok = rep.dt_max_partial >= dt and not paper.runs["scem"].diverged
    detail = [f"a=0.9 predicted {rep.dt_max_partial:.3e} >= {dt:.0e}, stable"]
    for alpha in (0.5, 0.4, 0.3):
        predicted = dt_max_partial(alpha, rep.gamma, rep.lambda_max_v2)
        kern = make_kernel(alpha, dt, 500)
        traj = run_scheme("partial", paper.sys_both, kern,
                          np.zeros(paper.sys_both.n),
                          lambda _: paper.load_both)
        ok &= predicted < dt and traj.diverged
        detail.append(f"a={alpha} predicted {predicted:.3e} < {dt:.0e}, "
                      f"guard at step {traj.diverged_step}")
    _verdict(8, "alpha instability reproduction", ok, "; ".join(detail))


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_basis_contracts(desk):
    aux1, aux2 = aux_spaces(desk.g, desk.fld, 3, 3)
    V1, V2 = vectors(desk.g, aux1), vectors(desk.g, aux2)
    b1, b2 = coarse_bases(desk.cs)
    # first-space basis: unit s-moments against every auxiliary function
    G1 = V1.T @ (aux1.weight @ b1.R)
    r_cem = float(np.max(np.abs(G1 - np.eye(V1.shape[1]))))
    # second-space basis: s-orthogonality to the first auxiliary space
    r_orth = float(np.max(np.abs(V1.T @ (aux1.weight @ b2.R))))
    # second-space basis: L2 moments equal those of the target eigenfunctions
    G2 = V2.T @ (aux2.weight @ b2.R)
    XtMX = (V2.T @ (aux2.weight @ V2)).toarray()
    r_mom = 0.0
    for j in range(b2.n):
        r_mom = max(r_mom, float(np.max(np.abs(G2[:, j] - XtMX[:, j]))))
    # idempotence of the element-wise s-orthogonal projection Pi onto the
    # first auxiliary space
    def project_pi(v):
        return V1 @ (V1.T @ (aux1.weight @ v))

    rng = np.random.default_rng(5)
    r_pi = 0.0
    for _ in range(5):
        v = rng.standard_normal(desk.g.n_dofs)
        pv = project_pi(v)
        r_pi = max(r_pi, float(np.max(np.abs(project_pi(pv) - pv))
                               / max(np.max(np.abs(pv)), 1.0)))
    ok = r_cem <= 1e-8 and r_orth <= 1e-8 and r_mom <= 1e-8 and r_pi <= 1e-10
    _verdict(9, "basis construction contracts", ok,
             f"constraint residuals {r_cem:.2e}, {r_orth:.2e}, {r_mom:.2e} "
             f"<= 1e-8; projection idempotence {r_pi:.2e} <= 1e-10")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_oracle_equivalences():
    rng = np.random.default_rng(11)
    worst = 0.0
    # smallest generalized eigenvalues vs characteristic-polynomial bisection
    for n in (3, 6):
        A = random_spd(n, rng)
        B = random_spd(n, rng)
        values, _ = _eig_smallest(A, B, n)
        oracle = charpoly_eigs_bisect(A, B)
        worst = max(worst, float(np.max(np.abs(values - oracle)
                                        / np.maximum(np.abs(oracle), 1.0))))
    # saddle-point solve vs dense block elimination
    for n, m in ((5, 2), (10, 3)):
        A = random_spd(n, rng)
        C = rng.standard_normal((m, n))
        b = rng.standard_normal(n)
        gv = rng.standard_normal(m)
        x, mu = kkt_solve(A, C, b, gv)
        xo, muo = kkt_dense_oracle(A, C, b, gv)
        worst = max(worst, float(np.max(np.abs(x - xo))),
                    float(np.max(np.abs(mu - muo))))
    # Galerkin reduction vs explicit Gram-Schmidt construction
    g = build_grids(2, 3)
    A = assembly.assemble(g, PermeabilityField(np.ones(g.n_cells)), "stiffness")
    M = assembly.assemble(g, None, "mass")
    Q = gram_schmidt_m(rng.standard_normal((g.n_dofs, 6)), M)
    sys_r = reduce(A, M, make_basis(Q))
    worst = max(worst, float(np.max(np.abs(sys_r.M - np.eye(6)))))
    A_oracle = np.array([[qi @ (A @ qj) for qj in Q.T] for qi in Q.T])
    worst = max(worst, float(np.max(np.abs(sys_r.A - A_oracle))))
    _verdict(10, "oracle equivalences", worst <= 1e-9,
             f"max deviation {worst:.3e} <= 1e-9")
