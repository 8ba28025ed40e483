"""Shared fixtures: deterministic rngs and a train-once cache.

Heavy tests (meta-training runs) go through `ensure_trained`, which keys a
cache directory by the exact training config and by the source of the
modules training numerics depend on, hashed once when this file imports
moplab: the first full-suite run trains everything, reruns read the
cached loss logs, and a change to any of those modules retrains rather
than reading runs written by older code. A cache entry keeps only what the
tests read and what identifies the run: loss.csv, config.json and
train-info.json, which records the environment it was trained in (the
cached numbers depend on the BLAS build and thread count); the
checkpoints stay in a temporary directory. Point MOPLAB_TEST_CACHE
somewhere else to isolate runs.

BLAS runs at one thread, set before numpy is first imported, so that the
cached runs do not depend on the host's core count.
"""

import dataclasses
import hashlib
import os
import tempfile
import time
from pathlib import Path

# moplab imports numpy, so this comes before any import of either
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np
import pytest

from moplab import training
from moplab.manifest import environment, sha256_json, write_csv, write_json
from moplab.model import TransformerWeights, init_weights

COMMITTED_CACHE = Path(__file__).resolve().parent.parent / "results" / "test-cache"
CACHE_ROOT = Path(os.environ.get("MOPLAB_TEST_CACHE", COMMITTED_CACHE))


# modules whose code decides a training run's loss trace and checkpoint
TRAINING_SOURCES = ("engine", "model", "training", "distributions", "systems",
                    "linalg", "seeding")


def source_key() -> str:
    package = Path(training.__file__).resolve().parent
    digest = hashlib.sha256()
    for name in TRAINING_SOURCES:
        digest.update(name.encode() + b"\0" + (package / f"{name}.py").read_bytes())
    return digest.hexdigest()[:16]


# the sources of the code this process imported, not of files edited later
SOURCES = source_key()


def config_key(cfg: training.TrainConfig, sources: str) -> str:
    return sha256_json({"config": dataclasses.asdict(cfg), "sources": sources})[:16]


def ensure_trained(cfg: training.TrainConfig, tag: str = "run") -> Path:
    """Train once per unique config and training source; return the cache
    entry's directory. loss.csv is written last, so its presence marks a
    complete entry."""
    entry = CACHE_ROOT / f"{tag}-{config_key(cfg, SOURCES)}"
    if (entry / "loss.csv").exists():
        return entry
    t0 = time.time()
    with tempfile.TemporaryDirectory() as run_dir:
        result = training.train(cfg, run_dir)
    entry.mkdir(parents=True, exist_ok=True)
    write_json(entry / "config.json", dataclasses.asdict(cfg))
    write_json(entry / "train-info.json",
               {"wallclock_s": time.time() - t0, "steps": cfg.steps,
                "sources": SOURCES, "environment": environment()})
    # no wallclock_s: train-info.json times the run, and a bit-identical
    # retrain then rewrites no line of the log
    write_csv(entry / "loss.csv", result.loss_rows, ["step", "loss", "grad_norm"])
    return entry


def zero_model(cfg) -> TransformerWeights:
    """A model of config `cfg` with every parameter zero: it predicts 0 at
    every position."""
    shapes = init_weights(cfg, np.random.default_rng(0)).arrays
    return TransformerWeights(cfg, {k: np.zeros_like(a) for k, a in shapes.items()})


class Stopped(Exception):
    """Raised in place of a training step, as if the run were killed there."""


def stop_training_at(monkeypatch, step):
    """Make the next `training.train` call raise Stopped at its step `step`
    (counted from the call's first step), after every checkpoint before it."""
    real, calls = training._loss_and_grads, []

    def stopping(weights, tokens):
        calls.append(None)
        if len(calls) == step + 1:
            raise Stopped
        return real(weights, tokens)

    monkeypatch.setattr(training, "_loss_and_grads", stopping)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def cache_root():
    CACHE_ROOT.mkdir(parents=True, exist_ok=True)
    return CACHE_ROOT


def load_loss_rows(entry: Path) -> list:
    rows = []
    import csv
    with open(entry / "loss.csv") as fh:
        for row in csv.DictReader(fh):
            rows.append({k: float(v) if k != "step" else int(v)
                         for k, v in row.items()})
    return rows
