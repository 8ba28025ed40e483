"""Run manifests and tabular output: atomic writes, deterministic CSV, CSV
errors by line number, and the environment a manifest records."""

from pathlib import Path

import numpy as np
import pytest

from moplab.manifest import atomic_open, environment, read_csv, write_csv


def test_atomic_open_keeps_the_previous_file_when_the_block_raises(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_open(path) as fh:
            fh.write("new\n")
            raise RuntimeError("midway")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]   # no .tmp file


def test_write_csv_keeps_the_fieldnames_order_and_writes_floats_by_repr(tmp_path):
    path = tmp_path / "loss.csv"
    rows = [{"loss": 0.1 + 0.2, "step": 0, "tag": "a"},
            {"loss": 1e-20, "step": 1, "tag": "b"}]
    write_csv(path, rows, ["step", "tag", "loss"])
    assert path.read_text() == "step,tag,loss\n0,a,0.30000000000000004\n1,b,1e-20\n"
    assert float(read_csv(path)[0]["loss"]) == 0.1 + 0.2


def test_read_csv_names_the_malformed_line(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("predictor,t\nkf,0\nkf\n")
    with pytest.raises(ValueError, match="line 3: expected 2 fields, got 1"):
        read_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="line 1: empty file"):
        read_csv(path)


@pytest.mark.skipif(
    "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
    reason="only OpenBLAS reports its thread count")
def test_environment_records_the_pinned_blas_thread():
    # conftest pins BLAS to one thread before numpy is first imported
    assert environment()["blas_threads"] == 1


def test_environment_hashes_the_sources_once_per_process(monkeypatch):
    # every manifest of one run records the same sources, even when a
    # source file reads differently partway through the run
    first = environment()["source_sha256"]
    monkeypatch.setattr(Path, "read_bytes", lambda self: b"edited")
    assert environment()["source_sha256"] == first
