"""``run.py --check``: identical fingerprints pass, drift fails."""

import glob
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def _check(a, b):
    return subprocess.run([sys.executable, RUN, "--check", str(a), str(b)],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)


def _record(path, fingerprint, geometry_seed=0, workload="reduced-sweep"):
    path.write_text(json.dumps({"workload": workload,
                                "environment": {"geometry_seed": geometry_seed},
                                "fingerprint": fingerprint}))
    return path


FP = {"0.9.cem.final_norm": 0.8584490214920799, "0.5.scem.diverged": True,
      "0.5.scem.diverged_step": 10, "err_L2_scem": float("nan")}


@pytest.mark.parametrize("change, drift", [
    ({}, False),
    ({"0.9.cem.final_norm": 0.8584490214920799 * (1 + 1e-12)}, False),
    ({"0.9.cem.final_norm": 0.8584490214920799 * (1 + 1e-7)}, True),
    ({"0.5.scem.diverged": False}, True),
    ({"0.5.scem.diverged_step": 11}, True),
    ({"err_L2_scem": 0.1}, True),
])
def test_check_flags_perturbed_fingerprint(tmp_path, change, drift):
    a = _record(tmp_path / "a.json", FP)
    b = _record(tmp_path / "b.json", {**FP, **change})
    res = _check(a, b)
    assert res.returncode == (1 if drift else 0), res.stdout + res.stderr


def test_exp1_tolerance_covers_blas_round_off_only(tmp_path):
    fp = {"lambda_max_v2": 8070.11043911}
    a = _record(tmp_path / "a.json", fp, workload="exp1")
    b = _record(tmp_path / "b.json", {"lambda_max_v2": 8070.11043911 * (1 + 1e-7)}, workload="exp1")
    c = _record(tmp_path / "c.json", {"lambda_max_v2": 8070.11043911 * (1 + 1e-5)}, workload="exp1")
    assert _check(a, b).returncode == 0
    assert _check(a, c).returncode == 1


def test_check_flags_missing_key_and_other_input(tmp_path):
    a = _record(tmp_path / "a.json", FP)
    b = _record(tmp_path / "b.json", {k: v for k, v in FP.items() if k != "err_L2_scem"})
    assert _check(a, b).returncode == 1
    c = _record(tmp_path / "c.json", FP, geometry_seed=3)
    assert _check(a, c).returncode == 1


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(BENCH, "baseline", "*.json"))))
def test_baseline_passes_and_checks_against_itself(path):
    with open(path) as fh:
        rec = json.load(fh)
    assert rec["result"]["correct"] and rec["result"]["failed"] == 0
    assert _check(path, path).returncode == 0


def test_baseline_reports_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    paths = glob.glob(os.path.join(BENCH, "baseline", "*.json"))
    seen = set()
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        kind = "per_layer" if rec["trace"] else "end_to_end"
        assert set(rec["result"]["metrics"]) == {m["name"] for m in bench[kind]}
        seen.add((rec["workload"], rec["trace"]))
    assert seen >= {(w["name"], t) for w in bench["workloads"] for t in (0, 1)}


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    import shutil
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exp1",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""



def test_calibration_process_is_stopped():
    import run
    with run.Calibration() as cal:
        cal.run(0.01)
        cal.run(0.01)
    assert len(cal.samples) >= 2 and cal.speed() > 0
    assert cal.proc.returncode == 0
