"""Tests for the experiment harness: field/forcing generators, error
series, configs, determinism, and the CLI entry points."""

import json

import numpy as np
import pytest

from tfmultiscale import assembly, cli, spaces
from tfmultiscale.grid import build_grids
from tfmultiscale.harness import (ExperimentConfig, _field_from_config,
                                  channel_geometry, error_series,
                                  experiment_config, gen_field, gen_forcing,
                                  run_experiment)
from tfmultiscale.schemes import Trajectory


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
])
def test_config_rejects_invalid_field(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


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


def test_cli_stability(tmp_path, capsys):
    p, cfg = _write_cfg(tmp_path)
    assert cli.main(["stability", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "dt_max_partial" in out
    assert (tmp_path / "out" / "stability_report.txt").exists()


def test_cli_basis(tmp_path, capsys):
    p, cfg = _write_cfg(tmp_path)
    cache = tmp_path / "basis.npz"
    assert cli.main(["basis", "--config", str(p), "--out", str(cache)]) == 0
    assert cache.exists()
    assert "basis columns" in capsys.readouterr().out
    grid = build_grids(cfg.coarse_n, cfg.refine)
    field_ = _field_from_config(cfg)
    basis = spaces.load_basis(cache, grid, field_, L=cfg.L, J=cfg.J,
                              layers=cfg.layers)
    assert basis.n == grid.n_coarse_elems * (cfg.L + cfg.J)
    with pytest.raises(ValueError, match="layers"):
        spaces.load_basis(cache, grid, field_, L=cfg.L, J=cfg.J,
                          layers=cfg.layers + 1)


def test_cli_experiment_rejects_bad_number():
    with pytest.raises(SystemExit):
        cli.main(["experiment", "5"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        cli.main([])
