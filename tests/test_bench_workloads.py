"""The benchmark's workloads (perfbench/run.py) call moplab's public API.
Running one set-up and one pass of each at the benchmark's tiny size makes
an API change that breaks one of those calls fail this suite, not only the
benchmark's own tests. train-linear runs every pass in one directory, so
its passes are also checked to train, not reuse a run found there."""

import importlib.util
import sys
from pathlib import Path

import pytest

from moplab import training

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # run.py imports its sibling tracing.py by name
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize("workload", ["train-linear", "eval-linear", "eval-quadrotor"])
def test_workload_runs_one_pass_at_tiny_size(bench, workload, tmp_path):
    assert workload in bench.WORKLOADS
    work = bench.make_workload(workload, 0, bench.SIZES["tiny"][workload], tmp_path)
    work.setup()
    assert work.run_pass() is not None
    assert work.attempted >= 1 and work.failed == 0


def test_train_workload_trains_every_pass_in_its_shared_directory(bench, tmp_path,
                                                                   monkeypatch):
    # the passes cycle through TRAIN_CONFIGS configs in one directory, so the
    # last pass reruns the first pass's config over another config's run
    results, real_train = [], training.train

    def recording_train(*args, **kwargs):
        results.append(real_train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(training, "train", recording_train)
    size = bench.SIZES["tiny"]["train-linear"]
    work = bench.make_workload("train-linear", 0, size, tmp_path)
    passes = []
    for _ in range(bench.TRAIN_CONFIGS + 1):
        work.setup()
        passes.append(work.run_pass())
    assert all(r.dataset_s is not None for r in results)
    assert all(len(rec["step_s"]) == size["steps"] - 1 for rec in passes)
    assert passes[-1]["config"] == passes[0]["config"]
    assert passes[-1]["loss"] == passes[0]["loss"]
