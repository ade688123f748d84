"""The tracer: wrappers come out again, spans nest under the caller, and
counts land on the span that did the work."""

import inspect
import json
import os
import sys

import pytest
import scipy.linalg
import scipy.sparse.linalg

import tfmultiscale
from tfmultiscale import cli, harness, schemes
from tfmultiscale.harness import ExperimentConfig

import tracer as tr

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PROCESS_METRICS = {"cpu_s", "blas_threads", "trace.overhead_s",
                   "trace.attributed_share", "ops_failed"}


def _bindings():
    """Every function object reachable from the package's module namespaces
    and module-level dicts, plus the patched scipy and class attributes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tfmultiscale" or name.startswith("tfmultiscale.")):
            continue
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                out[(name, attr)] = value
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    if inspect.isfunction(item):
                        out[(name, attr, key)] = item
    out["splu"] = scipy.sparse.linalg.splu
    out["eigh"] = scipy.linalg.eigh
    out["save"] = schemes.Trajectory.save
    out["solver"] = schemes.ReducedSystem.solver
    return out


def _tiny_solve(tmp_path, t):
    cfg = ExperimentConfig(alpha=0.9, T=4e-4, dt=1e-4, dt_fine=5e-5, coarse_n=4,
                           refine=4, layers=1, L=2, J=1,
                           field={"kind": "channels", "contrast": 100.0, "seed": 1},
                           forcing={"kind": "smooth"}, out_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    with t.installed_for(), t.span("bench.op") as root:
        assert cli.main(["solve", "--config", str(path)]) == 0
    return root, cfg


def test_wrappers_removed_after_traced_run(tmp_path, capsys):
    before = _bindings()
    t = tr.Tracer()
    t.install()
    during = _bindings()
    try:
        wrapped = {k for k in before if during[k] is not before[k]}
        for key in [("tfmultiscale.assembly", "assemble"),
                    ("tfmultiscale.harness", "run_scheme"),
                    ("tfmultiscale.schemes", "_STEPPERS", "implicit"),
                    ("tfmultiscale.cli", "run_experiment"), "splu", "eigh",
                    "save", "solver"]:
            assert key in wrapped, key
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    assert _bindings() == before
    _tiny_solve(tmp_path, t)
    assert all(after is before[k] for k, after in _bindings().items())
    assert not t.installed


def test_uninstalled_when_the_traced_call_raises():
    before = _bindings()
    t = tr.Tracer()
    with pytest.raises(ValueError):
        with t.installed_for(), t.span("bench.op"):
            harness.gen_field("perlin")
    assert _bindings() == before
    assert all(s[tr.END] is not None for s in t.spans)
    assert [s[tr.NAME] for s in t.spans] == ["bench.op", "harness.gen_field"]


def test_spans_nest_under_their_caller(tmp_path, capsys):
    t = tr.Tracer()
    root, cfg = _tiny_solve(tmp_path, t)
    spans = t.spans

    def parent_name(i):
        return spans[spans[i][tr.PARENT]][tr.NAME]

    def parents(name):
        return {parent_name(i) for i, s in enumerate(spans) if s[tr.NAME] == name}

    assert parents("cli.main") == {"bench.op"}
    assert parents("harness.run_experiment") == {"cli.main"}
    assert parents("schemes.fine_reference") == {"harness.run_experiment"}
    assert parents("schemes.run_scheme") == {"harness.run_experiment",
                                             "schemes.fine_reference"}
    # step functions are reached through the scheme dispatch table
    assert parents("fractional.history_rhs") == {"schemes.step_implicit",
                                                 "schemes.step_partial"}
    assert parents("schemes.solve") == {"schemes.step_implicit", "schemes.step_partial"}
    assert parents("linalg.splu") >= {"schemes.ReducedSystem.solver"}
    assert "spaces.aux_spectral" in parents("linalg.eigh")
    assert parents("assembly.load_vector") >= {"schemes.run_scheme"}
    for i, s in enumerate(spans[1:], start=1):
        p = spans[s[tr.PARENT]]
        assert p[tr.START] <= s[tr.START] <= s[tr.END] <= p[tr.END]

    stats = tr.span_stats(spans, root)
    m = tr.layer_metrics(stats)
    steps = cfg.n_steps * cfg.stride + 3 * cfg.n_steps
    assert m["schemes.steps"] == steps
    assert m["fractional.history_rhs.calls"] == steps
    assert m["schemes.solver.calls"] == 4
    assert m["spaces.columns"] == 16 * (cfg.L + cfg.J)
    assert m["fractional.history_terms"] == sum(
        k * (k + 1) // 2 for k in (cfg.n_steps * cfg.stride,) + (cfg.n_steps,) * 3)
    out = tmp_path / "out"
    assert m["schemes.Trajectory.save.bytes"] == sum(
        (out / f"trajectory_{n}.txt").stat().st_size for n in ("fine", "cem", "tildeU", "scem"))
    assert m["linalg.splu.fill_nnz"] > 0
    assert m["schemes.run_scheme.fine.s"] > 0 and m["schemes.run_scheme.scem.s"] > 0
    # inclusive time of nested names is counted once; self times add up
    total_self = sum(v["self_s"] for v in stats.values())
    wall = spans[root][tr.END] - spans[root][tr.START]
    assert total_self == pytest.approx(wall * tr.attributed_share(spans, root), rel=1e-9)
    assert 0.9 < tr.attributed_share(spans, root) <= 1.0

    t.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(spans)
    assert json.loads(lines[1])["parent"] == root


def test_layer_metrics_match_benchmark_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(tr.layer_metrics({}))
    assert produced | PROCESS_METRICS == declared
