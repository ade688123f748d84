"""Span tracer that times the layers of tfmultiscale from outside the package.

``Tracer.install()`` replaces the public functions of every layer module, two
methods (``Trajectory.save`` and ``ReducedSystem.solver``, whose returned
solve closures are wrapped too) and the scipy entry points the modules call
(``scipy.sparse.linalg.splu`` and ``scipy.linalg.eigh``, traced as the
``linalg`` layer) with timing wrappers.  A wrapper is put in at every binding
the package holds: the module attribute, names imported into other modules,
and values of module-level dicts such as a dispatch table.
``Tracer.uninstall()`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, info]`` (``info``
holds the work counted at that boundary: LU fill, bytes written, history
terms, ...) and summarised by ``layer_metrics``.  The package is single
threaded, so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("grid", "assembly", "fractional", "linalg", "spaces", "schemes",
          "stability", "harness", "cli")
PACKAGE = "tfmultiscale"
SPACES = ("fine", "cem", "tildeU", "scem")

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def note(self, idx: int, key: str, value) -> None:
        info = self.spans[idx][INFO]
        if info is None:
            info = self.spans[idx][INFO] = {}
        info[key] = info.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper; ``after(tracer, idx, args, kwargs, result)`` may
        count work on the span and returns the (possibly replaced) result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                result = after(tracer, idx, args, kwargs, result)
            return result
        return traced

    # ------------------------------------------------------- patching
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import scipy.linalg
        import scipy.sparse.linalg

        targets = []  # (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                targets.append((fn, self.wrap(name, fn, _AFTER.get(name))))
        for owner, attr, name in ((scipy.sparse.linalg, "splu", "linalg.splu"),
                                  (scipy.linalg, "eigh", "linalg.eigh")):
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, _AFTER.get(name))
            targets.append((fn, wrapper))
            self._set(owner, attr, wrapper)

        schemes = importlib.import_module(f"{PACKAGE}.schemes")
        for cls, attr in ((schemes.Trajectory, "save"),
                          (schemes.ReducedSystem, "solver")):
            name = f"schemes.{cls.__name__}.{attr}"
            fn = vars(cls)[attr]
            self._set(cls, attr, self.wrap(name, fn, _AFTER.get(name)))

        by_id = {id(orig): wrapper for orig, wrapper in targets}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    self._set(mod, attr, by_id[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in by_id:
                            self._patches.append((value, key, item, True))
                            value[key] = by_id[id(item)]

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig, is_item = self._patches.pop()
            if is_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    @contextmanager
    def installed_for(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")


# ------------------------------------------------------- counting hooks
def _count_lu_fill(tracer, idx, args, kwargs, lu):
    tracer.note(idx, "fill_nnz", int(lu.L.nnz + lu.U.nnz))
    return lu


def _count_file_bytes(path_pos):
    def after(tracer, idx, args, kwargs, result):
        path = kwargs.get("path", args[path_pos] if len(args) > path_pos else None)
        tracer.note(idx, "bytes", os.path.getsize(path))
        return result
    return after


def _count_trajectory(tracer, idx, args, kwargs, traj):
    n = traj.states.shape[1]
    tracer.spans[idx][INFO] = {
        "space": traj.space, "steps": traj.n_steps,
        "history_terms": traj.history_ops,
        "history_bytes": traj.history_ops * n * 8}
    return traj


def _count_columns(tracer, idx, args, kwargs, basis):
    tracer.note(idx, "columns", basis.n)
    return basis


def _wrap_solve(tracer, idx, args, kwargs, solve):
    return tracer.wrap("schemes.solve", solve)


_AFTER = {
    "linalg.splu": _count_lu_fill,
    "assembly.write_raster": _count_file_bytes(0),
    "schemes.Trajectory.save": _count_file_bytes(1),
    "schemes.run_scheme": _count_trajectory,
    "spaces.cem_basis": _count_columns,
    "spaces.v2_basis": _count_columns,
    "schemes.ReducedSystem.solver": _wrap_solve,
}


# ------------------------------------------------------------ summaries
def _tree(spans, root):
    """Indices of ``root`` and every span below it (children follow parents)."""
    inside = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] in inside:
            inside.add(i)
            out.append(i)
    return out


def span_stats(spans, root):
    """Per span name: calls, inclusive seconds (outermost occurrences only),
    self seconds, and summed ``info`` counts, over the tree under ``root``."""
    idx = _tree(spans, root)
    child_time = dict.fromkeys(idx, 0.0)
    for i in idx[1:]:
        child_time[spans[i][PARENT]] += spans[i][END] - spans[i][START]
    stats = {}
    for i in idx[1:]:
        name, start, end, parent, info = spans[i]
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "info": {}})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        p = parent
        while p != root and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p == root:
            s["s"] += end - start
        for key, value in (info or {}).items():
            if key == "space":
                per = s["info"].setdefault("space_s", {})
                per[value] = per.get(value, 0.0) + (end - start)
            else:
                s["info"][key] = s["info"].get(key, 0) + value
    return stats


def attributed_share(spans, root) -> float:
    """Share of the root span's duration covered by its direct children."""
    wall = spans[root][END] - spans[root][START]
    covered = sum(s[END] - s[START] for s in spans[root + 1:] if s[PARENT] == root)
    return covered / wall


def layer_metrics(stats) -> dict:
    """The per-layer metrics of the benchmark from ``span_stats`` output."""
    def get(name, key="s"):
        return stats.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def info(name, key):
        return stats.get(name, {}).get("info", {}).get(key, 0)

    run_scheme_space = info("schemes.run_scheme", "space_s") or {}
    m = {
        "grid.s": sum(v["s"] for k, v in stats.items() if k.startswith("grid.")),
        "assembly.assemble.calls": get("assembly.assemble", "calls"),
        "assembly.assemble.s": get("assembly.assemble"),
        "assembly.msfem_partition.s": get("assembly.msfem_partition"),
        "assembly.kappa_tilde.s": get("assembly.kappa_tilde"),
        "assembly.load_vector.calls": get("assembly.load_vector", "calls"),
        "assembly.load_vector.s": get("assembly.load_vector"),
        "assembly.write_raster.s": get("assembly.write_raster"),
        "assembly.write_raster.bytes": info("assembly.write_raster", "bytes"),
        "fractional.history_rhs.calls": get("fractional.history_rhs", "calls"),
        "fractional.history_rhs.s": get("fractional.history_rhs"),
        "fractional.history_terms": info("schemes.run_scheme", "history_terms"),
        "fractional.history_bytes": info("schemes.run_scheme", "history_bytes"),
        "linalg.splu.calls": get("linalg.splu", "calls"),
        "linalg.splu.s": get("linalg.splu"),
        "linalg.splu.fill_nnz": info("linalg.splu", "fill_nnz"),
        "linalg.eigh.calls": get("linalg.eigh", "calls"),
        "linalg.eigh.s": get("linalg.eigh"),
        "spaces.aux_spectral.s": get("spaces.aux_spectral"),
        "spaces.v2_aux_spectral.s": get("spaces.v2_aux_spectral"),
        "spaces.cem_basis.s": get("spaces.cem_basis"),
        "spaces.v2_basis.s": get("spaces.v2_basis"),
        "spaces.columns": info("spaces.cem_basis", "columns") + info("spaces.v2_basis", "columns"),
        "schemes.reduce.calls": get("schemes.reduce", "calls"),
        "schemes.reduce.s": get("schemes.reduce"),
        "schemes.solver.calls": get("schemes.ReducedSystem.solver", "calls"),
        "schemes.solve.s": get("schemes.solve"),
        "schemes.steps": info("schemes.run_scheme", "steps"),
    }
    for space in SPACES:
        m[f"schemes.run_scheme.{space}.s"] = run_scheme_space.get(space, 0.0)
    m.update({
        "schemes.fine_reference.s": get("schemes.fine_reference"),
        "schemes.Trajectory.save.s": get("schemes.Trajectory.save"),
        "schemes.Trajectory.save.bytes": info("schemes.Trajectory.save", "bytes"),
        "stability.build_report.s": get("stability.build_report"),
        "stability.lambda_max.s": get("stability.lambda_max"),
        "stability.estimate_gamma.s": get("stability.estimate_gamma"),
        "harness.error_series.s": get("harness.error_series"),
        "harness.run_experiment.self_s": get("harness.run_experiment", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    })
    return m


def combine(setup: dict, ops: list) -> dict:
    """One set-up plus the per-metric median over the traced ops (the lower
    middle value, so counts stay whole numbers)."""
    return {k: setup[k] + statistics.median_low(op[k] for op in ops) for k in setup}
