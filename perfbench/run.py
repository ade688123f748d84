#!/usr/bin/env python3
"""Benchmark of tfmultiscale.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check A.json B.json

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  With ``--trace 0`` the run sets the workload up
``SETUP_REPEATS`` times, then runs ops in a closed loop (each op starts when
the previous one ends) for about ``--seconds`` and prints the end-to-end
metrics, with times corrected for the speed of the host during the run (see
``Calibration``).  With ``--trace 1`` it sets up once under the tracer, then
alternates an untraced and a traced op and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is the result; the
full record (environment, per-op timings, fingerprint) is written to
``.bench_out/``.  ``--check`` compares the fingerprints of two records and
exits 1 on drift.  See perfbench/README.md.
"""

import os
import sys

# Pinned before numpy is imported, so BLAS reads it when it starts.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references.json")
CALIBRATE = os.path.join(HERE, "calibrate.py")

SETUP_REPEATS = 3
# About the median time of one calibration kernel on the baseline machine
# (perfbench/baseline/README.md): the corrected times are seconds at that
# machine's speed.
CALIBRATION_REF_S = 0.08
# Share of each op's (and set-up's) wall time spent calibrating after it.
CALIBRATION_SHARE = 0.15
# Relative tolerance of fingerprint floats.  1e-9 is ROADMAP's tolerance for
# exact-L1 paths.  exp1's basis-dependent numbers (lambda_max_v2,
# dt_max_partial, the final errors) move by up to 7e-8 when only the BLAS
# kernels change (OPENBLAS_CORETYPE=Haswell or Nehalem on the baseline
# machine), so 1e-9 would report round-off as drift there.
REL_TOL = {"exp1": 1e-6, "exp1-full": 1e-6, "contrast-sweep": 1e-9,
           "reduced-sweep": 1e-9}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "artifact_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to import)."""


def import_program():
    """Import tfmultiscale from this checkout; returns (seconds, modules)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import tfmultiscale
        import tfmultiscale.cli  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import tfmultiscale from {SRC}: {exc}") from exc
    import_s = time.perf_counter() - t0
    if not os.path.realpath(tfmultiscale.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"tfmultiscale was imported from {tfmultiscale.__file__}, not {SRC}")
    import tracer
    import workloads
    return import_s, tracer, workloads


# ------------------------------------------------------------ environment
def blas_threads() -> int:
    """Threads the loaded OpenBLAS libraries report (largest), 0 if unknown."""
    found = []
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(fn())
                break
    return max(found, default=0)


def environment(seed: int, gseed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_detected": blas_threads(),
        "seed": seed,
        "geometry_seed": gseed,
    }


# ------------------------------------------------------------- measuring
def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process; the import probes and the calibration
    process are not the workload."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def compare(got: dict, want: dict, rel_tol: float) -> list:
    """Differences between two fingerprints: floats to ``rel_tol`` relative,
    everything else exactly.  Returns one message per mismatch."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one fingerprint")
            continue
        a, b = got[key], want[key]
        if isinstance(a, float) or isinstance(b, float):
            a, b = float(a), float(b)
            same = (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rel_tol * max(abs(a), abs(b))
        else:
            same = a == b
        if not same:
            problems.append(f"{key}: {a!r} != {b!r}")
    return problems


def run_op(op, state, check, tracer=None) -> dict:
    """One op in a fresh output directory; ``check(fingerprint)`` lists problems."""
    out_dir = tempfile.mkdtemp(prefix="op-", dir=OUT)
    fp, root = None, None
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                fp = op(state, out_dir)
            else:
                with tracer.installed_for(), tracer.span("bench.op") as root:
                    fp = op(state, out_dir)
            problems = check(fp)
        except Exception:  # a failing op is counted; the run goes on
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        nbytes = dir_bytes(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "artifact_bytes": nbytes,
            "traced": tracer is not None, "ok": not problems,
            "problems": problems, "fingerprint": fp, "root": root}


class Calibration:
    """Host-speed calibration: a ``calibrate.py`` process beside the run
    (see there for why).  Use as a context manager; ``run(seconds)``
    calibrates for about that long while the run waits."""

    def __enter__(self):
        self.samples = []
        self.proc = subprocess.Popen([sys.executable, CALIBRATE], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, seconds: float) -> None:
        self.proc.stdin.write(f"{seconds!r}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        self.samples += [float(t) for t in line.split()]

    def speed(self) -> float:
        """Factor that turns this run's seconds into seconds at the
        reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def closed_loop(step, seconds: float) -> list:
    """Call ``step`` back to back until ``seconds`` have passed (at least once)."""
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        results.append(step())
    return results


IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import tfmultiscale, tfmultiscale.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Import time of numpy, scipy and tfmultiscale in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(res.stdout)


def timed_run(setup, op, gseed, check, seconds, record) -> dict:
    """Set up SETUP_REPEATS times (each a fresh import plus the workload's
    set-up), then time ops in a closed loop.  After each set-up and each op
    the host's speed is calibrated for CALIBRATION_SHARE of its time."""
    with Calibration() as cal:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            state = None  # peak RSS should hold one state, not two
            t0 = time.perf_counter()
            state = setup(gseed)
            setup_times.append(imported + time.perf_counter() - t0)
            cal.run(CALIBRATION_SHARE * setup_times[-1])

        def step():
            result = run_op(op, state, check)
            cal.run(CALIBRATION_SHARE * result["wall_s"])
            return result
        ops = closed_loop(step, seconds)
    speed = cal.speed()
    record["setup_times_s"] = setup_times
    record["ops"] = ops
    record["calibration"] = {"ref_s": CALIBRATION_REF_S, "speed": speed,
                             "samples_s": cal.samples}
    record["wall_median_measured_s"] = statistics.median(o["wall_s"] for o in ops)
    record["setup_median_measured_s"] = statistics.median(setup_times)
    return {
        "wall_s": record["wall_median_measured_s"] * speed,
        "setup_s": record["setup_median_measured_s"] * speed,
        "peak_rss_mb": peak_rss_mb(),
        "artifact_mb": statistics.median(o["artifact_bytes"] for o in ops) / 1e6,
    }


def traced_run(tr, setup, op, gseed, check, seconds, record) -> dict:
    tracer = tr.Tracer()
    with tracer.installed_for(), tracer.span("bench.setup") as setup_root:
        state = setup(gseed)
    pairs = closed_loop(lambda: (run_op(op, state, check),
                                 run_op(op, state, check, tracer)), seconds)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    spans = tracer.spans
    setup_stats = tr.span_stats(spans, setup_root)
    op_stats = [tr.span_stats(spans, t["root"]) for t in traced]
    metrics = tr.combine(tr.layer_metrics(setup_stats),
                         [tr.layer_metrics(s) for s in op_stats])
    metrics["cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    metrics["blas_threads"] = blas_threads()
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.attributed_share"] = statistics.median(
        tr.attributed_share(spans, t["root"]) for t in traced)
    metrics["ops_failed"] = sum(not o["ok"] for o in plain + traced)
    spans_path = os.path.join(OUT, f"spans-{record['workload']}-seed{record['seed']}.jsonl")
    tracer.write(spans_path)
    record["ops"] = plain + traced
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    record["span_stats"] = {"setup": setup_stats, "first_op": op_stats[0]}
    return metrics


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    if name.endswith((".s", "_s")):
        return "s"
    if name == "blas_threads":
        return "threads"
    return "count"


def run_workload(args) -> int:
    import_s, tr, wl = import_program()
    setup, op = wl.WORKLOADS[args.workload]
    gseed = wl.geometry_seed(args.workload, args.seed)
    with open(REFERENCES) as fh:
        want = json.load(fh).get(args.workload, {}).get(str(gseed))

    def check(fp):
        if want is None:
            return ["no reference recorded for this input"]
        return compare(fp, want, REL_TOL[args.workload])
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "import_s": import_s,
              "environment": environment(args.seed, gseed)}
    if args.trace:
        metrics = traced_run(tr, setup, op, gseed, check, args.seconds, record)
    else:
        metrics = timed_run(setup, op, gseed, check, args.seconds, record)
    ops = record["ops"]
    for o in ops:
        o.pop("root")
    record["fingerprint"] = next((o["fingerprint"] for o in ops if o["fingerprint"]), None)
    result = {"correct": all(o["ok"] for o in ops), "attempted": len(ops),
              "failed": sum(not o["ok"] for o in ops),
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    record["result"] = result
    path = args.out or os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for o in ops:
        for problem in o["problems"]:
            print(f"op failed: {problem}", file=sys.stderr)
    print(f"record written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def check_records(path_a: str, path_b: str) -> int:
    """Exit 0 when two records' fingerprints agree, 1 on drift."""
    records = []
    for path in (path_a, path_b):
        with open(path) as fh:
            records.append(json.load(fh))
    a, b = records
    problems = []
    if a["workload"] != b["workload"]:
        problems.append(f"workload: {a['workload']!r} != {b['workload']!r}")
    if a["environment"]["geometry_seed"] != b["environment"]["geometry_seed"]:
        problems.append("the records come from different inputs")
    if a.get("fingerprint") is None or b.get("fingerprint") is None:
        problems.append("a record has no fingerprint")
    else:
        problems += compare(a["fingerprint"], b["fingerprint"], REL_TOL[a["workload"]])
    for problem in problems:
        print(f"drift: {problem}")
    if not problems:
        print(f"fingerprints agree ({len(a['fingerprint'])} values, "
              f"rel. tol. {REL_TOL[a['workload']]:g})")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(REL_TOL))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="record file (default: .bench_out/<workload>-seed<seed>-trace<trace>.json)")
    p.add_argument("--check", nargs=2, metavar=("A", "B"),
                   help="compare the fingerprints of two record files")
    args = p.parse_args(argv)
    if args.check:
        return check_records(*args.check)
    if args.workload is None:
        p.error("--workload is required")
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
