"""Smoke test of the benchmark itself, at tiny sizes.

Kept out of the tier-1 suite (pytest collects only tests/ by default); run
it with `python -m pytest perfbench/tests`. Each workload must print every
named metric with a unit and a sample count, pass its correctness checks,
and, traced, write spans whose parents resolve.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "train-linear": ["train.steps_per_s", "train.step_ms.p50", "train.step_ms.p90",
                     "train.loss_final"],
    "eval-linear": ["eval.kf.systems_per_s", "eval.ar-ols.systems_per_s",
                    "eval.mop.systems_per_s"],
    "eval-quadrotor": ["eval.ekf.systems_per_s", "eval.mop.systems_per_s"],
}
EVERY_WORKLOAD = ["setup_s", "total_s", "peak_rss_mb", "failed_ratio"]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def metric_lines(lines):
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, n, *_ = line.split()
            out[name] = (float(value), unit, n)
    return out


def test_workload_names_match_manifest():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(NAMED)


@pytest.mark.parametrize("workload", list(NAMED))
def test_untraced_run_reports_every_metric(workload):
    lines, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = metric_lines(lines)
    for name in EVERY_WORKLOAD + NAMED[workload] + list(expected):
        value, unit, n = printed[name]
        assert unit and n.startswith("n=") and int(n[2:]) >= 1, name
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("numpy", "scipy", "blas", "nproc", "python", "git_commit",
                "blas_threads", "seed"):
        assert key in env
    assert env["blas_threads"] == 1 and env["seed"] == 7


@pytest.mark.parametrize("workload", list(NAMED))
def test_traced_run_reports_layers_and_resolvable_spans(workload):
    lines, result = run(workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    trace_line = next(line for line in lines if line.startswith("trace "))
    path = ROOT / trace_line.split()[1]
    try:
        with gzip.open(path, "rt") as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
    finally:
        path.unlink()
    assert header["run"] and spans
    ids = {s["id"] for s in spans}
    assert all(s["run"] == header["run"] for s in spans)
    assert all(s["parent"] == -1 or s["parent"] in ids for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)
    roots = {s["name"] for s in spans if s["parent"] == -1}
    assert roots == {"setup", "pass"}
    names = {s["name"] for s in spans}
    layer = "training.batch_loss" if workload == "train-linear" else "evaluation.error_curve"
    assert layer in names
