"""Tests for the experiment harness: field/forcing generators, error
series, configs, determinism, and the CLI entry points."""

import dataclasses
import json
import os
import tempfile
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tfmultiscale import assembly, cli, harness, spaces
from tfmultiscale.grid import build_grids
from tfmultiscale.harness import (ALL_SCHEMES, ExperimentConfig,
                                  channel_geometry, error_series,
                                  experiment_config, gen_field, gen_forcing,
                                  run_experiment)
from tfmultiscale.schemes import Trajectory, reduce

from test_spaces import coarse_bases


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
    back = gen_field("file", nx=10, ny=10, path=p)
    assert np.array_equal(back.values, fld.values)


def test_gen_field_file_rejects_a_raster_of_another_shape(tmp_path):
    """A 32 x 8 raster has the 256 cells of a 16 x 16 field but not its shape."""
    p = tmp_path / "kappa.txt"
    assembly.write_raster(p, 32, 8, np.ones(256))
    with pytest.raises(ValueError, match=r"kappa\.txt: the raster is 32 x 8, "
                                         r"expected 16 x 16"):
        gen_field("file", nx=16, ny=16, path=p)


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


def _errors(traj, basis, ref, A, M):
    """error_series of a single run."""
    return error_series({"run": (traj, basis)}, ref, A, M)["run"]


def _fine(n):
    """The identity basis, for states that are already on the fine space."""
    return spaces.ReducedBasis(R=np.eye(n), n1=n)


def test_error_series_identity_is_zero():
    rng = np.random.default_rng(0)
    states = rng.standard_normal((4, 6))
    ref = _traj(states, dt=0.05)
    traj = _traj(states, dt=0.05)
    A = np.eye(6)
    M = 2 * np.eye(6)
    es = _errors(traj, _fine(6), ref, A, M)
    assert np.allclose(es.err_l2, 0.0)
    assert np.allclose(es.err_energy, 0.0)


def test_error_series_doubled_reference_is_relative_one():
    rng = np.random.default_rng(1)
    states = rng.standard_normal((3, 5)) + 2.0
    ref = _traj(2 * states)
    traj = _traj(states)
    es = _errors(traj, _fine(5), ref, np.eye(5), np.eye(5))
    # skip k=0 only if reference vanished there (it does not here)
    assert np.allclose(es.err_l2, 0.5)
    assert np.allclose(es.err_energy, 0.5)
    assert not es.absolute.any()


def test_error_series_zero_reference_marks_absolute():
    ref = _traj(np.zeros((2, 4)))
    traj = _traj(np.ones((2, 4)))
    es = _errors(traj, _fine(4), ref, np.eye(4), np.eye(4))
    assert es.absolute.all()
    assert np.allclose(es.err_l2, 2.0)  # absolute M-norm, M=I


def test_error_series_strided_reference():
    # reference sampled 3x finer in time: compare every third state
    ref_states = np.arange(7.0)[:, None] * np.ones(3)
    ref = _traj(ref_states, dt=0.1)
    traj = _traj(ref_states[::3], dt=0.3)
    es = _errors(traj, _fine(3), ref, np.eye(3), np.eye(3))
    assert np.allclose(es.err_l2, 0.0)


def test_error_series_incompatible_grids():
    ref = _traj(np.zeros((8, 3)))
    traj = _traj(np.zeros((4, 3)))  # 7 ref steps vs 3 coarse steps
    with pytest.raises(ValueError):
        _errors(traj, _fine(3), ref, np.eye(3), np.eye(3))
    # Runs on different coarse grids share no reference levels.
    runs = {"a": (_traj(np.zeros((8, 3))), _fine(3)),
            "b": (_traj(np.zeros((2, 3))), _fine(3))}
    with pytest.raises(ValueError):
        error_series(runs, ref, np.eye(3), np.eye(3))


def _error_series_loop(traj, basis, reference, A, M):
    """Oracle: lift and compare one coarse time level at a time."""
    stride = round(reference.n_steps / traj.n_steps)
    n = traj.states.shape[0]
    err_l2, err_en = np.zeros(n), np.zeros(n)
    absolute = np.zeros(n, dtype=bool)
    for k in range(n):
        uf = basis.R @ traj.states[k]
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
    basis, width = _fine(n_fine), n_fine
    if lifted:
        width = n_coarse
        basis = spaces.ReducedBasis(R=rng.standard_normal((n_fine, n_coarse)),
                                    n1=n_coarse)
    ref_states = rng.standard_normal((n_steps * stride + 1, n_fine))
    zero = data.draw(st.lists(st.integers(0, n_steps), max_size=3))
    ref_states[[k * stride for k in zero]] = 0.0
    traj = _traj(rng.standard_normal((n_steps + 1, width)), dt=0.1 * stride)
    ref = _traj(ref_states, dt=0.1)
    es = _errors(traj, basis, ref, A, M)
    err_l2, err_en, absolute = _error_series_loop(traj, basis, ref, A, M)
    np.testing.assert_allclose(es.err_l2, err_l2, rtol=1e-12, atol=0)
    np.testing.assert_allclose(es.err_energy, err_en, rtol=1e-12, atol=0)
    assert np.array_equal(es.absolute, absolute)
    assert absolute[zero].all()


class _CountingMatrix:
    """A matrix that counts the vectors it is applied to."""

    def __init__(self, K):
        self.K, self.vectors = K, 0

    def __matmul__(self, X):
        self.vectors += X.shape[1]
        return self.K @ X


def test_error_series_in_blocks_matches_the_whole_array_formula():
    """Levels span two blocks, the second holding an absolute level; the
    reference's norms are taken once for both runs."""
    rng = np.random.default_rng(7)
    n_fine, n_coarse, stride = 9, 4, 2
    levels = harness.ERROR_LEVELS + 10
    B = rng.standard_normal((n_fine, n_fine))
    A = sp.csr_matrix(B @ B.T + n_fine * np.eye(n_fine))
    M = sp.csr_matrix(np.diag(rng.uniform(0.5, 2.0, n_fine)))
    ref_states = rng.standard_normal(((levels - 1) * stride + 1, n_fine))
    zero = harness.ERROR_LEVELS + 3
    ref_states[zero * stride] = 0.0
    ref = _traj(ref_states, dt=0.1)
    basis = spaces.ReducedBasis(R=rng.standard_normal((n_fine, n_coarse)),
                                n1=n_coarse)
    runs = {"lifted": (_traj(rng.standard_normal((levels, n_coarse)), dt=0.2), basis),
            "fine": (_traj(rng.standard_normal((levels, n_fine)), dt=0.2),
                     _fine(n_fine))}
    counted = _CountingMatrix(A), _CountingMatrix(M)
    got = error_series(runs, ref, *counted)
    for K in counted:
        assert K.vectors == levels * (1 + len(runs))
    R = ref_states[::stride]

    def norm(X, K):
        return np.sqrt(np.maximum(np.einsum("ij,ji->i", X, K @ X.T), 0.0))

    den, dena = norm(R, M), norm(R, A)
    assert (den == 0.0).tolist() == [k == zero for k in range(levels)]
    for name, (traj, basis) in runs.items():
        D = traj.states @ basis.R.T - R
        es = got[name]
        assert np.array_equal(es.absolute, den == 0.0)
        np.testing.assert_allclose(es.err_l2[zero], norm(D, M)[zero], rtol=1e-13)
        np.testing.assert_allclose(es.err_energy[zero], norm(D, A)[zero], rtol=1e-13)
        keep = np.arange(levels) != zero
        np.testing.assert_allclose(es.err_l2[keep], norm(D, M)[keep] / den[keep],
                                   rtol=1e-13)
        np.testing.assert_allclose(es.err_energy[keep],
                                   norm(D, A)[keep] / dena[keep], rtol=1e-13)
    assert error_series({}, ref, A, M) == {}


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
    # An out_dir given as a path is written as its string.
    dataclasses.replace(cfg, out_dir=tmp_path / "x").to_json(p)
    assert ExperimentConfig.from_json(p) == dataclasses.replace(
        cfg, out_dir=str(tmp_path / "x"))


def test_config_json_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"alpha": 0.5, "dtt": 1e-3, "colour": "red"}))
    with pytest.raises(ValueError, match=r"unknown config keys \['colour', 'dtt'\]"):
        ExperimentConfig.from_json(p)


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
    # Booleans are not numbers here, although Python counts them as ints.
    ("T", True), ("L", True), ("J", True), ("layers", True),
    ("field", {"kind": "channels", "seed": True}),
    ("field", {"kind": "channels", "n_channels": False}),
    ("field", {"kind": "inclusions", "contrast": True}),
    ("forcing", {"kind": "discontinuous", "levels": (0.0, True)}),
    ("forcing", {"kind": "custom", "values": [True, False, 1.0, 0.5]}),
    ("schemes", 3), ("out_dir", 3), ("out_dir", ""),
    pytest.param("T", 10**400, id="T-int-too-large-for-a-float"),
    pytest.param("field", {"kind": "channels", "contrast": 10**400},
                 id="field-contrast-int-too-large-for-a-float"),
])
def test_config_rejects_invalid_field(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("nx, ny", [(32, 8), (10, 10)])
def test_config_rejects_a_raster_file_of_another_size(tmp_path, nx, ny):
    """A 32 x 8 raster has the 256 values of the 16 x 16 grid but not its
    shape; a 10 x 10 one has neither."""
    path = tmp_path / "kappa.txt"
    assembly.write_raster(path, nx, ny, np.ones(nx * ny))
    with pytest.raises(ValueError, match=f"field path: the raster is {nx} x {ny} "
                       "cells, the grid 16 x 16"):
        ExperimentConfig(coarse_n=4, refine=4, field={"kind": "file", "path": str(path)})


def test_config_rejects_a_bundled_raster_on_another_grid():
    with pytest.raises(ValueError, match="field name: the raster is 100 x 100 "
                       "cells, the grid 16 x 16"):
        ExperimentConfig(coarse_n=4, refine=4, field={"kind": "bundled"})


def test_config_accepts_every_field_and_forcing_kind(tmp_path):
    path = tmp_path / "kappa.txt"
    assembly.write_raster(path, 100, 100, np.ones(100 * 100))
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


def test_gen_field_and_gen_forcing_take_a_spec_as_it_is(tmp_path):
    """A run passes its field and forcing specs to gen_field and gen_forcing
    as they are.  A spec without a kind has the default one ("channels",
    "smooth"), and a file or bundled raster is read unchanged: the fields
    are bit-equal to their oracles, and so are the forcings at the fine
    nodes of the default grid."""
    nf = 100
    path = tmp_path / "kappa.txt"
    values = np.random.default_rng(0).uniform(1.0, 1e5, nf * nf)
    assembly.write_raster(path, nf, nf, values)
    data = resources.files("tfmultiscale.data")

    def channels(contrast, **kw):
        return np.where(channel_geometry(nf, nf, **kw).ravel(), contrast, 1.0)

    for spec, oracle in (
            ({"contrast": 10.0}, channels(10.0)),
            ({"kind": "inclusions", "seed": 2, "n_inclusions": 3},
             gen_field("inclusions", nf, nf, seed=2, n_inclusions=3).values),
            ({"kind": "channels", "contrast": 1e3, "seed": 1, "n_channels": 2,
              "n_inclusions": 5}, channels(1e3, seed=1, n_channels=2, n_inclusions=5)),
            ({"kind": "file", "path": str(path)}, values),
            ({"kind": "bundled"}, assembly.read_raster(data / "kappa_test1.txt")[2]),
            ({"kind": "bundled", "name": "kappa_test2.txt"},
             assembly.read_raster(data / "kappa_test2.txt")[2])):
        cfg = ExperimentConfig(field=spec)
        assert np.array_equal(gen_field(nx=nf, ny=nf, **cfg.field).values, oracle)
    x, y = np.meshgrid(np.linspace(0.0, 1.0, nf + 1), np.linspace(0.0, 1.0, nf + 1))
    for spec, oracle in (
            ({}, gen_forcing("smooth")),
            ({"kind": "discontinuous", "square": (0.2, 0.8), "levels": (0, 2)},
             gen_forcing("discontinuous", square=(0.2, 0.8), levels=(0, 2))),
            ({"kind": "custom", "values": [1.0, 2.0, 3.0, 4.0]},
             gen_forcing("custom", values=[1.0, 2.0, 3.0, 4.0]))):
        cfg = ExperimentConfig(forcing=spec)
        assert np.array_equal(gen_forcing(**cfg.forcing)(x, y, 0.0), oracle(x, y, 0.0))


_NAN, _INF = float("nan"), float("inf")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PAIR = st.lists(_FINITE, min_size=2, max_size=2)


@st.composite
def valid_configs(draw):
    """The keyword arguments of a valid config, in JSON's types (lists, not
    tuples), with a time grid whose steps divide one another."""
    dt_fine = draw(st.floats(1e-8, 1.0))
    dt = dt_fine * draw(st.integers(1, 5))
    refine = draw(st.integers(3, 8))
    L = draw(st.integers(1, (refine - 1) ** 2 - 1))
    field = draw(st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["channels", "inclusions"]),
        "contrast": st.floats(0.0, exclude_min=True, allow_infinity=False),
        "seed": st.integers(0, 2**32), "n_channels": st.integers(0, 20),
        "n_inclusions": st.integers(0, 20)}))
    forcing = draw(st.one_of(
        st.fixed_dictionaries({}, optional={"kind": st.just("smooth")}),
        st.fixed_dictionaries({"kind": st.just("discontinuous")},
                              optional={"square": _PAIR, "levels": _PAIR}),
        st.fixed_dictionaries({"kind": st.just("custom"), "values": st.integers(1, 4).flatmap(
            lambda side: st.lists(_FINITE, min_size=side ** 2, max_size=side ** 2))})))
    return dict(alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                T=dt * draw(st.integers(1, 50)), dt=dt, dt_fine=dt_fine,
                coarse_n=draw(st.integers(2, 12)), refine=refine,
                layers=draw(st.integers(0, 4)), L=L,
                J=draw(st.integers(1, (refine - 1) ** 2 - L)), field=field,
                forcing=forcing, schemes=draw(st.lists(st.sampled_from(ALL_SCHEMES))),
                out_dir=draw(st.text(min_size=1)))


def _not_a_count(least):
    return st.one_of(st.integers(max_value=least - 1),
                     st.floats().filter(lambda v: not v.is_integer()),
                     st.sampled_from([True, False, "3", None]))


# Per config field, invalid values: wrong types, bools, NaN, out of range.
_INVALID = {
    "alpha": st.one_of(st.floats(min_value=1.0), st.floats(max_value=0.0),
                       st.sampled_from([_NAN, True, False, "0.5", None])),
    **{name: st.one_of(st.floats(max_value=0.0), st.integers(min_value=2**1024),
                       st.sampled_from([_NAN, _INF, True, "1", None]))
       for name in ("T", "dt", "dt_fine")},
    **{name: _not_a_count(least) for name, least in (
        ("coarse_n", 2), ("refine", 2), ("layers", 0), ("L", 1), ("J", 1))},
    "field": st.one_of(
        st.sampled_from(["channels", None, [], {"kind": "perlin"},
                         {"kind": "file"}, {"kind": "channels", "nx": 7}]),
        st.fixed_dictionaries({"contrast": st.one_of(
            st.floats(max_value=0.0), st.sampled_from([_NAN, _INF, True, "1"]))}),
        st.fixed_dictionaries({"kind": st.just("inclusions"),
                               "seed": st.one_of(st.integers(max_value=-1), st.just(True))})),
    "forcing": st.one_of(
        st.sampled_from(["smooth", None, {"kind": "wavy"}, {"kind": "custom"},
                         {"kind": "custom", "values": [1.0, 2.0, 3.0]}]),
        st.fixed_dictionaries({"kind": st.just("discontinuous"), "levels": st.one_of(
            st.lists(_FINITE, max_size=1), st.just([0.0, _NAN]), st.just([0.0, True]))})),
    "schemes": st.one_of(st.integers(), st.text(), st.none(),
                         st.lists(st.text().filter(lambda s: s not in ALL_SCHEMES), min_size=1),
                         st.just(["fine", 3])),
    "out_dir": st.one_of(st.just(""), st.integers(), st.floats(), st.none(), st.booleans(),
                         st.just(b"out"), st.just(["out"])),
}


def test_every_config_field_has_invalid_values():
    assert set(_INVALID) == {f.name for f in dataclasses.fields(ExperimentConfig)}


@settings(max_examples=60, deadline=None)
@given(kwargs=valid_configs())
def test_a_valid_config_survives_json(kwargs):
    cfg = ExperimentConfig(**kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        cfg.to_json(path)
        assert ExperimentConfig.from_json(path) == cfg


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kwargs=valid_configs(), field=st.sampled_from(sorted(_INVALID)))
def test_an_invalid_value_is_rejected_naming_its_field(data, kwargs, field):
    kwargs[field] = data.draw(_INVALID[field], label=field)
    with pytest.raises(ValueError, match=rf"^{field}[ :]"):
        ExperimentConfig(**kwargs)


def test_config_limits_local_eigenpairs_to_element_interior():
    """An element of refine 3 has 4 interior DOFs: L + J = 4 builds both
    spaces, L + J = 5 is rejected when the config is built."""
    cfg = ExperimentConfig(coarse_n=3, refine=3, L=3, J=1, layers=1)
    grid = build_grids(cfg.coarse_n, cfg.refine)
    fld = gen_field(nx=grid.n_fine, ny=grid.n_fine, **cfg.field)
    cs = spaces.build_spaces(grid, fld, cfg.L, cfg.J, cfg.layers)
    assert cs.combined.n == grid.coarse_n ** 2 * 4
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


def test_error_csv_fills_the_columns_of_schemes_not_run_with_nan(tmp_path):
    cfg = _tiny_config(tmp_path / "run", schemes=("fine", "cem"))
    run_experiment(cfg)
    rows = (tmp_path / "run" / "errors.csv").read_text().splitlines()[1:]
    assert len(rows) == cfg.n_steps + 1
    for k, row in enumerate(rows):
        step, time, *errs = row.split(",")
        assert int(step) == k and float(time) == pytest.approx(k * cfg.dt)
        assert all(np.isfinite(float(e)) for e in errs[:2])
        assert errs[2:] == ["nan"] * 4


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
    path = tmp_path / "run" / "trajectory_fine.txt"
    assert cfg.dt == 1e-4
    assert path.read_text().splitlines()[0] == (
        "# space=fine alpha=0.90000000000000002 dt=0.0001 diverged=0 "
        "diverged_step=-1")
    dump = np.loadtxt(path, ndmin=2)
    assert dump.shape[0] == cfg.n_steps + 1
    assert np.array_equal(dump, fine.states[::cfg.stride])


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
    basis1, _ = coarse_bases(cs)
    oracle = reduce(cs.A, cs.M, basis1)
    assert (sys_cem.n1, sys_cem.n) == (oracle.n1, oracle.n) == (basis1.n,) * 2
    assert _rel(sys_cem.M, oracle.M) <= 1e-12
    assert _rel(sys_cem.A, oracle.A) <= 1e-12


def test_run_experiment_holds_each_basis_once(tmp_path, monkeypatch):
    """cem's basis is a column view of the combined one, and the errors are
    taken on that view."""
    measured = {}
    series = harness.error_series
    monkeypatch.setattr(harness, "error_series", lambda runs, *args:
                        measured.update(runs) or series(runs, *args))
    cfg, cs, runs = _record_tiny_run(tmp_path, monkeypatch)
    assert set(measured) == {"cem", "tildeU", "scem"}
    assert measured["tildeU"][1] is measured["scem"][1] is cs.combined
    cem = measured["cem"][1].R
    assert cem.base is cs.combined.R and np.shares_memory(cem, cs.combined.R)
    assert np.array_equal(cem, cs.combined.R[:, :cs.combined.n1])


def test_run_experiment_reduced_loads_per_step(tmp_path, monkeypatch):
    cfg, cs, runs = _record_tiny_run(tmp_path, monkeypatch)
    grid = build_grids(cfg.coarse_n, cfg.refine)
    forcing = gen_forcing(**cfg.forcing)
    cem, _ = coarse_bases(cs)
    for name, basis in (("cem", cem), ("tildeU", cs.combined),
                        ("scem", cs.combined)):
        F = runs[name][1]
        for k in range(cfg.n_steps):
            oracle = basis.R.T @ assembly.load_vector(grid, forcing, (k + 1) * cfg.dt)
            assert F(k).shape == (basis.n,)
            assert _rel(F(k), oracle) <= 1e-12


def test_time_independent_load_built_once(tmp_path, monkeypatch):
    """A run builds one fine load, for the fine reference's first step, and
    one coarse load."""
    times = []
    load_vector = assembly.load_vector
    monkeypatch.setattr(assembly, "load_vector",
                        lambda grid, f, t: times.append(t) or load_vector(grid, f, t))
    cfg = _tiny_config(tmp_path / "run")
    run_experiment(cfg)
    assert times == [cfg.dt_fine, cfg.dt]


def test_gen_forcing_kinds_do_not_depend_on_time():
    for f in (gen_forcing("smooth"), gen_forcing("discontinuous"),
              gen_forcing("custom", values=np.arange(16.0))):
        x = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(f(x, x, 0.0), f(x, x, 3.5))


def test_run_experiment_scheme_subset(tmp_path):
    cfg = _tiny_config(tmp_path / "sub", schemes=("fine", "cem"))
    result = run_experiment(cfg)
    assert set(result.trajectories) == {"fine", "cem"}
    assert set(result.errors) == {"cem"}


def test_run_without_fine_writes_final_rasters(tmp_path):
    """Without the fine reference a run takes no errors, but a coarse scheme
    that did not diverge still writes its final raster, with the bytes a
    run with the reference writes."""
    run_experiment(_tiny_config(tmp_path / "coarse", schemes=("cem",)))
    run_experiment(_tiny_config(tmp_path / "both", schemes=("fine", "cem")))
    coarse = tmp_path / "coarse"
    assert sorted(p.name for p in coarse.iterdir()) == [
        "final_cem.txt", "kappa.txt", "stability_report.txt", "trajectory_cem.txt"]
    assert ((coarse / "final_cem.txt").read_bytes()
            == (tmp_path / "both" / "final_cem.txt").read_bytes())


def test_a_diverged_scheme_writes_no_final_raster(tmp_path):
    """At alpha 0.3 and contrast 1e4 the partially explicit scheme diverges
    on the tiny grid: its trajectory is dumped, its final raster is not."""
    cfg = _tiny_config(tmp_path / "run", alpha=0.3, schemes=("cem", "scem"),
                       field={"kind": "channels", "contrast": 1e4, "seed": 1})
    result = run_experiment(cfg)
    assert result.trajectories["scem"].diverged
    assert not result.trajectories["cem"].diverged
    out = tmp_path / "run"
    assert (out / "final_cem.txt").exists()
    assert (out / "trajectory_scem.txt").exists()
    assert not (out / "final_scem.txt").exists()


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
    """``stability`` is ``solve`` with no schemes: it prints the report and
    the path it wrote, and writes the same bytes as ``solve``."""
    p, cfg = _write_cfg(tmp_path)
    assert cli.main(["stability", "--config", str(p)]) == 0
    report = tmp_path / "out" / "stability_report.txt"
    text = report.read_text()
    assert "dt_max_partial = " in text
    assert capsys.readouterr().out == f"{text}written to {report}\n"
    assert sorted(f.name for f in report.parent.iterdir()) == [
        "kappa.txt", "stability_report.txt"]
    (tmp_path / "solve").mkdir()
    p_solve, _ = _write_cfg(tmp_path / "solve")
    assert cli.main(["solve", "--config", str(p_solve)]) == 0
    assert (tmp_path / "solve" / "out" / "stability_report.txt").read_bytes() \
        == report.read_bytes()


def test_cli_experiment_rejects_bad_number():
    with pytest.raises(SystemExit):
        cli.main(["experiment", "5"])


def test_cli_config_errors_are_usage_errors(tmp_path, capsys):
    """An invalid config, from flags or from a file, ends in one usage error
    line naming the field and exit status 2, not a traceback."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"alpha": 0.5, "dtt": 1e-3}))
    for argv, message in ((["experiment", "1", "--alpha", "1.5"],
                           "alpha must be a real in (0, 1), got 1.5"),
                          (["solve", "--config", str(p)],
                           "unknown config keys ['dtt']")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("tfms: error: ") and err[-1].endswith(message)


@pytest.mark.parametrize("command", ["solve", "stability"])
@pytest.mark.parametrize("content, message", [
    (None, "cannot read the config (No such file or directory)"),
    ("3", "a config must be a JSON object, got int"),
    ("[1, 2]", "a config must be a JSON object, got list"),
    ('{"alpha": ', "not a JSON config (Expecting value: line 1 column 11"),
], ids=["missing", "number", "list", "malformed"])
def test_cli_unreadable_config_is_a_usage_error(tmp_path, capsys, command,
                                                content, message):
    """A config file that is missing, not JSON or not a JSON object ends in
    one usage error line naming the file, and exit status 2."""
    p = tmp_path / "cfg.json"
    if content is not None:
        p.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"tfms: error: {p}: {message}")


@pytest.mark.parametrize("command", ["solve", "stability"])
@pytest.mark.parametrize("field, value", [("schemes", 3), ("out_dir", 3), ("out_dir", "")])
def test_cli_invalid_schemes_or_out_dir_is_a_usage_error(tmp_path, capsys, command,
                                                         field, value):
    """A config file whose schemes or out_dir has the wrong type, or whose
    out_dir is empty, ends in one usage error line naming the field and exit
    status 2, not in a traceback from the run."""
    p, _ = _write_cfg(tmp_path)
    data = json.loads(p.read_text())
    data[field] = value
    p.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("tfms: error: ")] == [err[-1]]
    assert err[-1].startswith(f"tfms: error: {field} must be ")
    assert not (tmp_path / "out").exists()


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        cli.main([])
