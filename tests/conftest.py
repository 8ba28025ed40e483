"""Shared fixtures: deterministic rngs and a train-once cache.

Heavy tests (meta-training runs) go through `ensure_trained`, which keys a
cache directory by the exact training config and by the source of the
modules training numerics depend on: the first full-suite run trains
everything, reruns load checkpoints, and a change to any of those modules
retrains rather than reading runs written by older code. Point
MOPLAB_TEST_CACHE somewhere else to isolate runs.
"""

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from moplab import training
from moplab.manifest import sha256_json, write_csv, write_json

CACHE_ROOT = Path(os.environ.get(
    "MOPLAB_TEST_CACHE", Path(__file__).resolve().parent.parent / "results" / "test-cache"))


# modules whose code decides a training run's loss trace and checkpoint
TRAINING_SOURCES = ("engine", "model", "training", "distributions", "systems",
                    "linalg", "seeding")


def source_key() -> str:
    package = Path(training.__file__).resolve().parent
    digest = hashlib.sha256()
    for name in TRAINING_SOURCES:
        digest.update(name.encode() + b"\0" + (package / f"{name}.py").read_bytes())
    return digest.hexdigest()[:16]


def config_key(cfg: training.TrainConfig, sources: str) -> str:
    return sha256_json({"config": dataclasses.asdict(cfg), "sources": sources})[:16]


def ensure_trained(cfg: training.TrainConfig, tag: str = "run") -> Path:
    """Train once per unique config and training source; later calls reuse
    the checkpoint. The source key is taken once, so the directory's key
    and its recorded sources agree even if a source changes meanwhile."""
    sources = source_key()
    out_dir = CACHE_ROOT / f"{tag}-{config_key(cfg, sources)}"
    final = out_dir / "ckpt-final.ckpt"
    if final.exists():
        return final
    t0 = time.time()
    result = training.train(cfg, out_dir)
    write_csv(out_dir / "loss.csv", result.loss_rows,
              ["step", "loss", "grad_norm", "wallclock_s"])
    write_json(out_dir / "config.json", dataclasses.asdict(cfg))
    write_json(out_dir / "train-info.json",
               {"wallclock_s": time.time() - t0, "steps": cfg.steps,
                "sources": sources})
    return final


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def cache_root():
    CACHE_ROOT.mkdir(parents=True, exist_ok=True)
    return CACHE_ROOT


def load_loss_rows(ckpt_path: Path) -> list:
    rows = []
    loss_csv = ckpt_path.parent / "loss.csv"
    import csv
    with open(loss_csv) as fh:
        for row in csv.DictReader(fh):
            rows.append({k: float(v) if k != "step" else int(v)
                         for k, v in row.items()})
    return rows
