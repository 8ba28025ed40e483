"""The benchmark's workloads (perfbench/run.py) call moplab's public API.
Running one set-up and one pass of each at the benchmark's tiny size makes
an API change that breaks one of those calls fail this suite, not only the
benchmark's own tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

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
