"""Tests for the experiment harness: field/forcing generators, error
series, configs, determinism, and the CLI entry points."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tfmultiscale import assembly, cli, harness, spaces
from tfmultiscale.grid import build_grids
from tfmultiscale.harness import (ExperimentConfig, _field_from_config,
                                  channel_geometry, error_series,
                                  experiment_config, gen_field, gen_forcing,
                                  run_experiment)
from tfmultiscale.schemes import Trajectory, load_trajectory, reduce


# -------------------------------------------------------------------- fields

def test_gen_field_two_values():
    fld = gen_field("channels", nx=20, ny=20, contrast=1e4, seed=1)
    vals = np.unique(fld.values)
    assert set(vals) == {1.0, 1e4}
    assert fld.values.size == 400


def test_gen_field_inclusions_two_values():
    fld = gen_field("inclusions", nx=30, ny=30, contrast=50.0, seed=2)
    assert set(np.unique(fld.values)) <= {1.0, 50.0}
    assert (fld.values == 50.0).any()


def test_gen_field_deterministic():
    a = gen_field("channels", nx=25, ny=25, seed=7)
    b = gen_field("channels", nx=25, ny=25, seed=7)
    assert np.array_equal(a.values, b.values)


def test_gen_field_file_round_trip(tmp_path):
    fld = gen_field("channels", nx=10, ny=10, contrast=1e3, seed=0)
    p = tmp_path / "kappa.txt"
    assembly.write_raster(p, 10, 10, fld.values)
    back = gen_field("file", path=p)
    assert np.array_equal(back.values, fld.values)


def test_gen_field_unknown_kind():
    with pytest.raises(ValueError):
        gen_field("perlin")


def test_channel_geometry_has_long_features():
    mask = channel_geometry(100, 100, seed=0)
    # at least one row mostly covered (a through-channel)
    assert mask.sum(axis=1).max() >= 80
    assert mask.any() and not mask.all()


# ------------------------------------------------------------------- forcing

def test_forcing_smooth_center_value():
    f = gen_forcing("smooth")
    assert f(0.5, 0.5, 0.0) == pytest.approx(2 * np.pi ** 2)
    assert f(0.0, 0.3, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert f(0.3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_forcing_discontinuous_two_levels():
    f = gen_forcing("discontinuous", square=(0.25, 0.75), levels=(-1.0, 3.0))
    assert f(0.5, 0.5, 0.0) == 3.0
    assert f(0.1, 0.5, 0.0) == -1.0
    assert f(0.5, 0.9, 0.0) == -1.0


def test_forcing_custom_raster():
    vals = np.arange(9.0)
    f = gen_forcing("custom", values=vals)
    assert f(0.0, 0.0, 0.0) == 0.0
    assert f(1.0, 1.0, 0.0) == 8.0
    assert f(0.5, 0.0, 0.0) == 1.0


def test_forcing_custom_rejects_non_square():
    with pytest.raises(ValueError):
        gen_forcing("custom", values=np.arange(5.0))


def test_forcing_unknown_kind():
    with pytest.raises(ValueError):
        gen_forcing("noise")


# -------------------------------------------------------------- error series

def _traj(states, dt=0.1, space="fine"):
    return Trajectory(space=space, alpha=0.5, dt=dt,
                      states=np.asarray(states, dtype=float),
                      diverged=False, diverged_step=-1, history_ops=0)


def test_error_series_identity_is_zero():
    rng = np.random.default_rng(0)
    states = rng.standard_normal((4, 6))
    ref = _traj(states, dt=0.05)
    traj = _traj(states, dt=0.05)
    A = np.eye(6)
    M = 2 * np.eye(6)
    es = error_series(traj, None, ref, A, M)
    assert np.allclose(es.err_l2, 0.0)
    assert np.allclose(es.err_energy, 0.0)


def test_error_series_doubled_reference_is_relative_one():
    rng = np.random.default_rng(1)
    states = rng.standard_normal((3, 5)) + 2.0
    ref = _traj(2 * states)
    traj = _traj(states)
    es = error_series(traj, None, ref, np.eye(5), np.eye(5))
    # skip k=0 only if reference vanished there (it does not here)
    assert np.allclose(es.err_l2, 0.5)
    assert np.allclose(es.err_energy, 0.5)
    assert not es.absolute.any()


def test_error_series_zero_reference_marks_absolute():
    ref = _traj(np.zeros((2, 4)))
    traj = _traj(np.ones((2, 4)))
    es = error_series(traj, None, ref, np.eye(4), np.eye(4))
    assert es.absolute.all()
    assert np.allclose(es.err_l2, 2.0)  # absolute M-norm, M=I


def test_error_series_strided_reference():
    # reference sampled 3x finer in time: compare every third state
    ref_states = np.arange(7.0)[:, None] * np.ones(3)
    ref = _traj(ref_states, dt=0.1)
    traj = _traj(ref_states[::3], dt=0.3)
    es = error_series(traj, None, ref, np.eye(3), np.eye(3))
    assert np.allclose(es.err_l2, 0.0)


def test_error_series_incompatible_grids():
    ref = _traj(np.zeros((8, 3)))
    traj = _traj(np.zeros((4, 3)))  # 7 ref steps vs 3 coarse steps
    with pytest.raises(ValueError):
        error_series(traj, None, ref, np.eye(3), np.eye(3))


def _error_series_loop(traj, basis, reference, A, M):
    """Oracle: lift and compare one coarse time level at a time."""
    stride = round(reference.n_steps / traj.n_steps)
    n = traj.states.shape[0]
    err_l2, err_en = np.zeros(n), np.zeros(n)
    absolute = np.zeros(n, dtype=bool)
    for k in range(n):
        uf = traj.states[k] if basis is None else basis.R @ traj.states[k]
        ref = reference.states[k * stride]
        d = uf - ref
        dl2 = np.sqrt(max(d @ (M @ d), 0.0))
        den = np.sqrt(max(ref @ (M @ ref), 0.0))
        dan = np.sqrt(max(d @ (A @ d), 0.0))
        dena = np.sqrt(max(ref @ (A @ ref), 0.0))
        if den == 0.0 or dena == 0.0:
            absolute[k] = True
            err_l2[k], err_en[k] = dl2, dan
        else:
            err_l2[k], err_en[k] = dl2 / den, dan / dena
    return err_l2, err_en, absolute


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_fine=st.integers(2, 12), n_coarse=st.integers(1, 5),
       n_steps=st.integers(1, 6), stride=st.integers(1, 3),
       lifted=st.booleans(), sparse=st.booleans())
def test_error_series_matches_per_step_loop(data, n_fine, n_coarse, n_steps,
                                            stride, lifted, sparse):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    B = rng.standard_normal((n_fine, n_fine))
    A = B @ B.T + n_fine * np.eye(n_fine)
    M = np.diag(rng.uniform(0.5, 2.0, n_fine))
    if sparse:
        A, M = sp.csr_matrix(A), sp.csr_matrix(M)
    basis = None
    width = n_fine
    if lifted:
        width = n_coarse
        basis = spaces.ReducedBasis(R=rng.standard_normal((n_fine, n_coarse)),
                                    col_elem=np.zeros(n_coarse, dtype=int),
                                    col_index=np.arange(n_coarse),
                                    tags=np.array(["cem"] * n_coarse))
    ref_states = rng.standard_normal((n_steps * stride + 1, n_fine))
    zero = data.draw(st.lists(st.integers(0, n_steps), max_size=3))
    ref_states[[k * stride for k in zero]] = 0.0
    traj = _traj(rng.standard_normal((n_steps + 1, width)), dt=0.1 * stride)
    ref = _traj(ref_states, dt=0.1)
    es = error_series(traj, basis, ref, A, M)
    err_l2, err_en, absolute = _error_series_loop(traj, basis, ref, A, M)
    np.testing.assert_allclose(es.err_l2, err_l2, rtol=1e-12, atol=0)
    np.testing.assert_allclose(es.err_energy, err_en, rtol=1e-12, atol=0)
    assert np.array_equal(es.absolute, absolute)
    assert absolute[zero].all()


# -------------------------------------------------------------------- config

def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(alpha=0.4, T=0.02, dt=1e-3, dt_fine=5e-4,
                           coarse_n=4, refine=5, layers=1, L=2, J=1,
                           field={"kind": "channels", "contrast": 100.0},
                           forcing={"kind": "smooth"},
                           schemes=("cem", "scem"), out_dir="x")
    p = tmp_path / "cfg.json"
    cfg.to_json(p)
    back = ExperimentConfig.from_json(p)
    assert back == cfg


def test_config_rejects_bad_time_grid():
    with pytest.raises(ValueError):
        ExperimentConfig(T=0.01, dt=3e-5)
    with pytest.raises(ValueError):
        ExperimentConfig(dt=2e-5, dt_fine=1.5e-5)


@pytest.mark.parametrize("field, value", [
    ("coarse_n", 1), ("refine", 1), ("L", 0), ("J", 0),
    ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5),
    ("schemes", ("fine", "bogus")),
    ("T", -0.01), ("T", float("inf")), ("dt", 0.0), ("dt", float("nan")),
    ("dt", -2e-5), ("dt_fine", 0.0), ("dt_fine", float("nan")),
    ("field", {"kind": "channels", "contrast": -1}),
    ("field", {"kind": "channels", "contrast": 0.0}),
    ("field", {"kind": "channels", "contrast": float("nan")}),
    ("field", {"kind": "channels", "contrast": float("inf")}),
    ("L", 81), ("J", 81), ("refine", 2),
    ("refine", 4.5), ("coarse_n", float("nan")), ("layers", "1"),
    ("field", {"kind": "perlin"}), ("field", {"kind": "channels", "sede": 1}),
    ("field", {"kind": "file"}), ("field", "channels"),
    ("forcing", {"kind": "wavy"}), ("forcing", {"kind": "custom"}),
    ("forcing", {"kind": "smooth", "square": (0.2, 0.8)}), ("alpha", "0.9"),
    ("field", {"kind": "channels", "nx": 7}), ("field", {"kind": "inclusions", "ny": 7}),
    ("field", {"kind": "channels", "seed": "a"}), ("field", {"kind": "channels", "seed": -1}),
    ("field", {"kind": "channels", "seed": 1.5}),
    ("field", {"kind": "channels", "n_channels": -2}),
    ("field", {"kind": "inclusions", "n_inclusions": 2.0}),
    ("field", {"kind": "bundled", "name": "nope.txt"}),
    ("field", {"kind": "file", "path": "no/such/kappa.txt"}),
    ("forcing", {"kind": "discontinuous", "square": (0.2,)}),
    ("forcing", {"kind": "discontinuous", "square": "ab"}),
    ("forcing", {"kind": "discontinuous", "levels": (0.0, float("nan"))}),
    ("forcing", {"kind": "discontinuous", "levels": (0.0, "1")}),
    ("forcing", {"kind": "custom", "values": [1.0, 2.0, 3.0]}),
    ("forcing", {"kind": "custom", "values": [1.0, float("inf"), 0.0, 0.0]}),
    ("forcing", {"kind": "custom", "values": []}),
    ("forcing", {"kind": "custom", "values": ["a", "b", "c", "d"]}),
])
def test_config_rejects_invalid_field(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_accepts_every_field_and_forcing_kind(tmp_path):
    path = tmp_path / "kappa.txt"
    path.write_text("1 1\n1.0\n")
    for field in ({"contrast": 10.0},
                  {"kind": "inclusions", "seed": 2, "n_inclusions": 3},
                  {"kind": "channels", "contrast": 1e3, "seed": 1,
                   "n_channels": 2, "n_inclusions": 5},
                  {"kind": "file", "path": str(path)}, {"kind": "bundled"},
                  {"kind": "bundled", "name": "kappa_test2.txt"}):
        assert ExperimentConfig(field=field).field == field
    for forcing in ({},
                    {"kind": "discontinuous", "square": (0.2, 0.8), "levels": (0, 2)},
                    {"kind": "custom", "values": [1.0, 2.0, 3.0, 4.0]}):
        assert ExperimentConfig(forcing=forcing).forcing == forcing


def test_config_limits_local_eigenpairs_to_element_interior():
    """An element of refine 3 has 4 interior DOFs: L + J = 4 builds both
    spaces, L + J = 5 is rejected when the config is built."""
    cfg = ExperimentConfig(coarse_n=3, refine=3, L=3, J=1, layers=1)
    grid = build_grids(cfg.coarse_n, cfg.refine)
    cs = spaces.build_spaces(grid, _field_from_config(cfg), cfg.L, cfg.J,
                             cfg.layers)
    assert cs.combined.n == grid.n_coarse_elems * 4
    with pytest.raises(ValueError, match="L \\+ J = 5 .*refine=3"):
        ExperimentConfig(coarse_n=3, refine=3, L=3, J=2)


def test_config_single_step():
    cfg = ExperimentConfig(T=0.01, dt=0.01, dt_fine=0.01)
    assert cfg.n_steps == 1
    assert cfg.stride == 1


def test_experiment_config_numbers():
    c1 = experiment_config(1)
    c2 = experiment_config(2, alpha=0.5)
    assert c1.forcing["kind"] == "smooth"
    assert c2.forcing["kind"] == "discontinuous"
    assert c2.alpha == 0.5
    with pytest.raises(ValueError):
        experiment_config(3)


# -------------------------------------------------------- tiny end-to-end run

def _tiny_config(out_dir, **kw):
    base = dict(alpha=0.9, T=4e-4, dt=1e-4, dt_fine=5e-5, coarse_n=4,
                refine=4, layers=1, L=2, J=1,
                field={"kind": "channels", "contrast": 100.0, "seed": 1},
                forcing={"kind": "smooth"}, out_dir=str(out_dir))
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_artifacts(tmp_path):
    cfg = _tiny_config(tmp_path / "run")
    result = run_experiment(cfg)
    out = tmp_path / "run"
    for name in ("errors.csv", "stability_report.txt", "kappa.txt",
                 "final_fine.txt", "final_scem.txt", "trajectory_cem.txt"):
        assert (out / name).exists()
    assert set(result.errors) == {"cem", "tildeU", "scem"}
    for es in result.errors.values():
        assert es.err_l2.shape == (cfg.n_steps + 1,)
        assert np.all(np.isfinite(es.err_l2))
    header = (out / "errors.csv").read_text().splitlines()[0]
    assert header == ("step,time,err_L2_cem,err_en_cem,err_L2_tildeU,"
                      "err_en_tildeU,err_L2_scem,err_en_scem")


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(_tiny_config(tmp_path / "a"))
    b = run_experiment(_tiny_config(tmp_path / "b"))
    assert (tmp_path / "a" / "errors.csv").read_bytes() == \
           (tmp_path / "b" / "errors.csv").read_bytes()
    assert np.array_equal(a.trajectories["scem"].states,
                          b.trajectories["scem"].states)


def test_run_experiment_assembles_each_matrix_once(tmp_path, monkeypatch):
    kinds = []
    assemble = assembly.assemble
    monkeypatch.setattr(assembly, "assemble", lambda grid, field, weight:
                        kinds.append(weight) or assemble(grid, field, weight))
    run_experiment(_tiny_config(tmp_path / "run"))
    assert sorted(kinds) == ["mass", "stiffness", "weighted_mass"]


def test_run_experiment_fine_dump_holds_coarse_levels(tmp_path):
    cfg = _tiny_config(tmp_path / "run")
    assert cfg.stride > 1
    result = run_experiment(cfg)
    fine = result.trajectories["fine"]
    assert fine.states.shape[0] == cfg.n_steps * cfg.stride + 1
    dump = load_trajectory(tmp_path / "run" / "trajectory_fine.txt")
    assert dump.states.shape[0] == cfg.n_steps + 1
    assert dump.dt == cfg.dt
    assert np.array_equal(dump.states, fine.states[::cfg.stride])


def _record_tiny_run(tmp_path, monkeypatch):
    """Run the tiny experiment; return its spaces and run_scheme's arguments
    per space."""
    built, runs = [], {}
    build_spaces, run_scheme = spaces.build_spaces, harness.run_scheme
    monkeypatch.setattr(spaces, "build_spaces",
                        lambda *a: built.append(build_spaces(*a)) or built[-1])

    def record(scheme, sys_r, kernel, u0, forcing, space=""):
        runs[space] = (sys_r, forcing)
        return run_scheme(scheme, sys_r, kernel, u0, forcing, space=space)

    monkeypatch.setattr(harness, "run_scheme", record)
    cfg = _tiny_config(tmp_path / "run")
    run_experiment(cfg)
    return cfg, built[0], runs


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_run_experiment_cem_system_is_its_own_reduction(tmp_path, monkeypatch):
    cfg, cs, runs = _record_tiny_run(tmp_path, monkeypatch)
    sys_cem = runs["cem"][0]
    oracle = reduce(cs.A, cs.M, cs.basis1)
    assert (sys_cem.n1, sys_cem.n2) == (oracle.n1, oracle.n2) == (cs.basis1.n, 0)
    assert _rel(sys_cem.M, oracle.M) <= 1e-12
    assert _rel(sys_cem.A, oracle.A) <= 1e-12


def test_run_experiment_reduced_loads_per_step(tmp_path, monkeypatch):
    cfg, cs, runs = _record_tiny_run(tmp_path, monkeypatch)
    grid = build_grids(cfg.coarse_n, cfg.refine)
    forcing = harness._forcing_from_config(cfg)
    for name, basis in (("cem", cs.basis1), ("tildeU", cs.combined),
                        ("scem", cs.combined)):
        F = runs[name][1]
        assert F.shape == (cfg.n_steps, basis.n)
        for k in range(cfg.n_steps):
            oracle = basis.R.T @ assembly.load_vector(grid, forcing, (k + 1) * cfg.dt)
            assert _rel(F[k], oracle) <= 1e-12


def test_time_independent_load_built_once(tmp_path, monkeypatch):
    """A marked forcing gets one fine and one coarse load; an unmarked one
    gets one per step, with a bit-identical fine reference."""
    times = []
    load_vector = assembly.load_vector
    monkeypatch.setattr(assembly, "load_vector",
                        lambda grid, f, t: times.append(t) or load_vector(grid, f, t))
    cfg = _tiny_config(tmp_path / "marked")
    assert harness._forcing_from_config(cfg).time_independent
    marked = run_experiment(cfg)
    assert times == [cfg.dt_fine, cfg.dt]

    forcing = harness._forcing_from_config(cfg)
    monkeypatch.setattr(harness, "_forcing_from_config",
                        lambda cfg: lambda x, y, t: forcing(x, y, t))
    times.clear()
    plain = run_experiment(_tiny_config(tmp_path / "plain"))
    N = cfg.n_steps
    assert len(times) == N * cfg.stride + N
    assert np.array_equal(plain.trajectories["fine"].states,
                          marked.trajectories["fine"].states)
    for name in ("cem", "tildeU", "scem"):
        assert _rel(plain.trajectories[name].states[-1],
                    marked.trajectories[name].states[-1]) <= 1e-12


def test_gen_forcing_kinds_marked_time_independent():
    for f in (gen_forcing("smooth"), gen_forcing("discontinuous"),
              gen_forcing("custom", values=np.arange(16.0))):
        assert f.time_independent
        x = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(f(x, x, 0.0), f(x, x, 3.5))


def test_run_experiment_scheme_subset(tmp_path):
    cfg = _tiny_config(tmp_path / "sub", schemes=("fine", "cem"))
    result = run_experiment(cfg)
    assert set(result.trajectories) == {"fine", "cem"}
    assert set(result.errors) == {"cem"}


# ----------------------------------------------------------------------- CLI

def _write_cfg(tmp_path, **kw):
    cfg = _tiny_config(tmp_path / "out", **kw)
    p = tmp_path / "cfg.json"
    cfg.to_json(p)
    return p, cfg


def test_cli_solve(tmp_path, capsys):
    p, cfg = _write_cfg(tmp_path)
    assert cli.main(["solve", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "scem: ok" in out
    assert (tmp_path / "out" / "errors.csv").exists()


def test_cli_solve_accepts_integral_float_counts(tmp_path, capsys):
    """JSON written by other tools may carry counts as 3.0: the config
    stores them as ints, so the run does not fail inside numpy."""
    p, _ = _write_cfg(tmp_path)
    data = json.loads(p.read_text())
    data.update(coarse_n=3.0, refine=4.0, layers=1.0, L=2.0, J=1.0)
    p.write_text(json.dumps(data))
    cfg = ExperimentConfig.from_json(p)
    for name in ("coarse_n", "refine", "layers", "L", "J"):
        assert type(getattr(cfg, name)) is int
    assert cli.main(["solve", "--config", str(p)]) == 0
    assert "scem: ok" in capsys.readouterr().out
    assert (tmp_path / "out" / "errors.csv").exists()


def test_cli_stability(tmp_path, capsys):
    p, cfg = _write_cfg(tmp_path)
    assert cli.main(["stability", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "dt_max_partial" in out
    assert (tmp_path / "out" / "stability_report.txt").exists()


def test_cli_experiment_rejects_bad_number():
    with pytest.raises(SystemExit):
        cli.main(["experiment", "5"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        cli.main([])
