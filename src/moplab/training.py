"""Meta-training: minimize the mean next-output error ||yhat - y|| over M
source systems, one fixed length-T trajectory each.

The dataset is one stack of prompt tokens: each sampled system's
trajectory is rolled once when the dataset is built, and only the M*T
outputs the excess-risk guarantee counts (inputs appended, for systems
that take them) are kept, so a step's batch is one index into them. The
systems are drawn DATASET_CHUNK at a time, so a chunk's dense A's are
rescaled by one stacked spectral-radius call, bit for bit the per-system
draws, and then rolled one by one; no more than a chunk is held at once. A
step records its batch on one tape per chunk of TRAIN_CHUNK trajectories
and sums the chunks' gradients, so the tape it holds does not grow with
the batch. The optimizer is Adam with gradient-norm clipping; every draw is
seeded, so a (config, seed) pair reproduces the loss trace bit for bit.
On glibc, the heap a chunk frees stays in the process while `train` runs,
so the next chunk reuses it instead of faulting fresh pages in, and is
handed back to the OS when `train` returns. The dataset is recorded by its
config and one sha256 over its token stack, the bytes every step indexes,
so the record does not grow with M.
`train` alone writes and reads a run's directory: dataset.json once the
dataset is built, then the loss log just before each checkpoint file (abort
included) and the manifest, which names the config and hashes the run's
checkpoints, just after it. A rerun of that config reuses the final one or
resumes from the newest other, continuing the log beside it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import engine, model
from .distributions import Distribution, get_distribution
from .manifest import (read_csv, sha256_file, sha256_json, write_csv, write_json,
                       write_manifest)
from .model import ModelConfig, TransformerWeights
from .seeding import stream

__all__ = [
    "TrainConfig", "MetaDataset", "TrainingAborted", "TrainResult",
    "build_meta_dataset", "batch_loss", "train",
]

DIVERGENCE_LOSS = 1e6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
LOG_EVERY = 50                       # steps between progress lines when not quiet
LOSS_FIELDS = ("step", "loss", "grad_norm", "wallclock_s")   # loss.csv columns

# Trajectories per tape in a training step (gradients summed over the
# chunks). The tape grows linearly with the chunk: traced by tracemalloc, a
# desk chunk of 8 trajectories of 50 outputs retains a 7.9 MB tape, and its
# forward and backward peak at 8.6 MB; a chunk of 16 retains 16.4 MB, and
# its forward peaks at 17.8 MB. On a 2-core x86 VM with BLAS at one thread,
# desk batch-64 steps took 102.0, 90.9, 93.0 and 97.2 ms in chunks of 4, 8,
# 16 and 32 (30 interleaved rounds in one process).
TRAIN_CHUNK = 8

# Systems drawn per `Distribution.sample_systems` call in a dataset build:
# their dense A's share one stacked `spectral_radius` call, and the chunk is
# held until its systems are rolled. On a 2-core x86 VM with BLAS at one
# thread, the stacked radius cost 0.76, 0.49, 0.33, 0.27 and 0.23 ms per
# 10x10 matrix in stacks of 16, 32, 64, 128 and 256 (2.7 ms alone). Traced
# by tracemalloc, a 200-system linear-triangular build of 50 outputs peaks
# at 1.16, 1.28 and 1.52 times what it keeps in chunks of 32, 64 and 128.
DATASET_CHUNK = 64

# glibc's M_TOP_PAD while `train` runs: the free memory kept at the top of
# the heap instead of returned to the OS. A desk-model chunk of TRAIN_CHUNK
# trajectories works in about 9 MB, which 16, 32 and 64 MiB all keep;
# 64 MiB leaves room for a larger model.
TRAIN_TOP_PAD = 64 * 1024 * 1024
GLIBC_TOP_PAD = 128 * 1024          # glibc's default M_TOP_PAD
_M_TOP_PAD = -2                     # mallopt parameter number, from malloc.h


class TrainingAborted(RuntimeError):
    def __init__(self, message, step):
        super().__init__(f"training aborted at step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    preset: str = "linear-dense"
    m_systems: int = 2000
    train_len: int = 50              # outputs per trajectory
    steps: int = 5000
    batch_size: int = 64
    lr: float = 3e-4
    clip_norm: float = 1.0
    seed: int = 0
    checkpoint_every: int = 1000
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        model.require_ints(self, ("m_systems", "train_len", "steps", "batch_size", "seed",
                                  "checkpoint_every"))
        model.require_positive_reals(self, ("lr", "clip_norm"))
        for name in ("m_systems", "train_len", "batch_size", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.train_len < 2:
            raise ValueError("train_len must be >= 2 (need a prediction target)")
        if self.train_len - 1 > self.model.context:
            raise ValueError("train_len - 1 exceeds the model context")
        dist, cfg = get_distribution(self.preset), self.model
        if (cfg.token_dim, cfg.output_dim) != (dist.token_dim, dist.m):
            raise ValueError(f"model/preset dimensionality mismatch: model tokens "
                             f"{cfg.token_dim}->{cfg.output_dim}, preset {dist.name} "
                             f"wants {dist.token_dim}->{dist.m}")


class MetaDataset:
    """The training set: M sampled source systems' trajectories, system i's
    rolled once straight into row i of the stack `tokens` (M, T, token_dim)
    (see `systems.Trajectory.tokens`; its first m columns are the outputs).
    The systems themselves are not kept: none is held beyond its chunk of
    DATASET_CHUNK systems, and the set is identified by `tokens_sha256`,
    the sha256 of the C-contiguous float64 stack."""

    def __init__(self, dist: Distribution, m_systems, train_len, seed):
        self.dist = dist
        self.m_systems = m_systems
        self.train_len = train_len
        self.seed = seed
        self.tokens = np.empty((m_systems, train_len, dist.token_dim))
        for lo in range(0, m_systems, DATASET_CHUNK):
            chunk = range(lo, min(lo + DATASET_CHUNK, m_systems))
            for i, system in zip(chunk, dist.sample_systems(seed, "train", chunk)):
                self.tokens[i] = self.trajectory(system, i)
        self.tokens_sha256 = hashlib.sha256(self.tokens).hexdigest()

    def trajectory(self, system, i):
        """The tokens of system i's training trajectory."""
        return self.dist.make_trajectory(system, self.train_len, self.seed, "train", i).tokens

    def manifest(self) -> dict:
        """The dataset's config and the sha256 of its tokens: the same size
        at any M."""
        return {
            "preset": self.dist.name,
            "m_systems": self.m_systems,
            "train_len": self.train_len,
            "seed": self.seed,
            "role": "train",
            "tokens_sha256": self.tokens_sha256,
        }


def build_meta_dataset(preset, m_systems, train_len, seed) -> MetaDataset:
    return MetaDataset(get_distribution(preset), m_systems, train_len, seed)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def batch_loss(weights: TransformerWeights, tokens) -> engine.Tensor:
    """Mean next-output prediction error ||yhat - y|| over a batch of
    trajectories' tokens (B, T, token_dim), the outputs y their first
    output_dim columns.

    One forward pass per trajectory over tokens 0..T-2 scores every next
    output; the mean runs over all (trajectory, position) prediction terms
    in trajectory-major, time-minor order. Inside `with graph:` the loss is
    recorded on that graph, with the weights as its named leaves.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 3 or tokens.shape[1] < 2:
        raise ValueError(f"tokens must be (B, T >= 2, token_dim), got shape {tokens.shape}")
    preds = model.forward(weights, tokens[:, :-1])
    targets = tokens[:, 1:, :weights.config.output_dim].astype(weights.config.dtype)
    resid = engine.sub(preds, engine.Tensor(targets))
    return engine.mean_all(engine.l2norm_lastdim(resid))


def _loss_and_grads(weights: TransformerWeights, tokens):
    """The batch's `batch_loss` value and its gradient per parameter name,
    taped one chunk of TRAIN_CHUNK trajectories at a time.

    Each chunk's loss is scaled by its share of the batch, so the chunks sum
    to the batch mean; a chunk's backward consumes its tape before the next
    one is recorded, which bounds the activations held to one chunk's. A
    batch of one chunk is scaled by 1, and its loss and gradients are bit
    for bit those of one graph.
    """
    n = len(tokens)
    loss, grads = 0.0, {}
    for lo in range(0, n, TRAIN_CHUNK):
        chunk = tokens[lo:lo + TRAIN_CHUNK]
        tape = engine.Graph()
        with tape:
            part = engine.scale(batch_loss(weights, chunk), len(chunk) / n)
        loss += part.item()
        for name, g in engine.backward(tape, part).items():
            grads[name] = grads[name] + g if name in grads else g
    return loss, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class _Adam:
    def __init__(self, lr: float, arrays, step=0, state=None):
        self.lr = lr
        self.state = state or {moment: {k: np.zeros_like(v) for k, v in arrays.items()}
                               for moment in ("m", "v")}
        self.t = step

    def apply(self, arrays, grads):
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, w in arrays.items():
            g = grads[name]
            m = self.state["m"][name]
            v = self.state["v"][name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            w -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


def _clip_gradients(grads: dict, clip_norm: float):
    total = 0.0
    for name in grads:
        g = grads[name]
        total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > clip_norm:
        s = clip_norm / norm
        grads = {k: g * s for k, g in grads.items()}
    return norm, grads


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _set_top_pad(nbytes: int) -> None:
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, nbytes)


def _trim_heap() -> None:
    """Hand the free memory of glibc's heap back to the OS (malloc_trim)."""
    ctypes.CDLL("libc.so.6").malloc_trim(ctypes.c_size_t(0))


def _top_pad_chosen() -> bool:
    """Whether the environment sets glibc's top pad itself."""
    return ("MALLOC_TOP_PAD_" in os.environ
            or "glibc.malloc.top_pad" in os.environ.get("GLIBC_TUNABLES", ""))


@contextmanager
def _retained_heap():
    """Keep freed memory in glibc's heap for the duration of the block,
    and hand it back to the OS on the way out.

    Each chunk's backward frees its tape; with glibc's default pad that
    memory goes back to the OS and the next chunk faults it in again, page
    by page. The pad is process-wide, so it is set back to the default on
    the way out. Resetting the pad returns nothing by itself: glibc only
    trims when a later free crosses its threshold, and after a desk-model
    run RSS stood 6-15 MB above where the call began. So the heap is
    trimmed after the reset, on a normal return and on an abort alike, and
    the caller's later work (an experiment's scoring) runs on a trimmed
    heap instead of on top of the retained one. The next `train` call in
    the process then faults its first step's heap back in. Any
    mallopt call also stops glibc from adapting its mmap and trim
    thresholds for the rest of the process. This does nothing off glibc
    or when the environment chooses the top pad (MALLOC_TOP_PAD_ or
    GLIBC_TUNABLES), so a chosen pad is never overwritten and a heap the
    environment manages is never trimmed.
    """
    if platform.libc_ver()[0] != "glibc" or _top_pad_chosen():
        yield
        return
    _set_top_pad(TRAIN_TOP_PAD)
    try:
        yield
    finally:
        _set_top_pad(GLIBC_TOP_PAD)
        _trim_heap()


@dataclass
class TrainResult:
    """What one `train` call wrote and measured, or for a reused run its
    final checkpoint and logged rows; the caller holds its config, and the
    run's directory records it (see `train`)."""
    checkpoints: list                # paths in write order; the last is the final one
    loss_rows: list                  # dicts: step, loss, grad_norm, wallclock_s; from step 0
    dataset_s: float | None          # dataset build, before the steps' clock; None if reused


def _logged_rows(run_dir, below):
    """run_dir's logged loss rows (none without a loss.csv) for the steps below `below`."""
    log = Path(run_dir) / "loss.csv"
    return [{k: (int if k == "step" else float)(r[k]) for k in LOSS_FIELDS}
            for r in (read_csv(log) if log.exists() else []) if int(r["step"]) < below]


@_retained_heap()
def train(cfg: TrainConfig, out_dir, resume=None, quiet=True) -> TrainResult:
    """Run the meta-training loop, writing the run's directory out_dir:
    dataset.json (`MetaDataset.manifest`), then around each checkpoint file
    (weights, Adam moments, step and train_len) loss.csv just before it and the train
    manifest just after it: the config, its seed, the dataset's hash, the
    sha256 of each checkpoint of the run (see below), the wall seconds since
    the call began, and loss.csv and that checkpoint as outputs.

    Without `resume`, a run in out_dir whose manifest records `cfg` goes on
    from the newest checkpoint it hashes whose file still matches, never
    ckpt-abort.ckpt, or else from step 0; those that match stay hashed. A
    final one is returned untouched, no dataset built (`dataset_s` None).

    `resume` continues from a checkpoint path written by an earlier
    (identically configured) run; the loss trace and its log continue
    exactly where the interrupted run would have gone, the earlier rows as
    that run clocked them. A checkpoint of another model config, or past
    `cfg.steps`, raises `model.CheckpointError` before out_dir is made.

    Each step takes the batch loss and gradients chunk by chunk (see
    `_loss_and_grads`), then clips and applies one Adam update. A loss
    that is not finite or exceeds DIVERGENCE_LOSS writes the weights the
    step started from to ckpt-abort.ckpt and raises `TrainingAborted`.

    The result's `dataset_s` times the dataset build, which samples and
    rolls every training trajectory before the clock of the loss rows'
    `wallclock_s` starts.
    """
    t_call = time.time()
    out_dir, hashes = Path(out_dir), {}      # hashes: the run's checkpoints, in write order
    manifest = out_dir / "manifest.json"
    prev = json.loads(manifest.read_text()) if manifest.exists() else {"config": None}
    if sha256_json(prev["config"]) == sha256_json(asdict(cfg)):
        hashes = {name: digest for name, digest in prev["checkpoint_hashes"].items()
                  if (out_dir / name).exists() and sha256_file(out_dir / name) == digest}
    if resume is None:
        resume = next((out_dir / name for name in reversed(hashes)
                       if name != "ckpt-abort.ckpt"), None)
        if resume is not None and resume.name == "ckpt-final.ckpt":
            return TrainResult([str(resume)], _logged_rows(out_dir, cfg.steps), None)
    if resume is None:
        weights = model.init_weights(cfg.model, stream(cfg.seed, "init"))
        start_step, state, loss_rows = 0, None, []
    else:
        weights, start_step, state = model.load_training_state(resume)
        if weights.config != cfg.model:
            raise model.CheckpointError(
                f"{resume}: checkpoint model {weights.config} does not match "
                f"the config's model {cfg.model}")
        if start_step > cfg.steps:
            raise model.CheckpointError(
                f"{resume}: checkpoint is at step {start_step}, past the "
                f"config's {cfg.steps} steps")
        loss_rows = _logged_rows(Path(resume).parent, start_step)
    adam = _Adam(cfg.lr, weights.arrays, start_step, state)
    t_data = time.perf_counter()
    ds = build_meta_dataset(cfg.preset, cfg.m_systems, cfg.train_len, cfg.seed)
    dataset_s = time.perf_counter() - t_data

    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "dataset.json", ds.manifest())
    checkpoints = []
    t0 = time.time()

    def checkpoint(step, tag=None):
        write_csv(out_dir / "loss.csv", loss_rows, LOSS_FIELDS)
        path = out_dir / (tag or f"ckpt-{step:06d}.ckpt")
        model.save_checkpoint(weights, path, optimizer=(step, adam.state),
                              train_len=cfg.train_len)
        checkpoints.append(str(path))
        hashes[path.name] = sha256_file(path)
        write_manifest(out_dir, "train", asdict(cfg), cfg.seed,
                       dataset_hash=sha256_json(ds.manifest()),
                       checkpoint_hashes=hashes, wallclock_s=time.time() - t_call,
                       outputs=[str(out_dir / "loss.csv"), str(path)])

    for step in range(start_step, cfg.steps):
        idx = stream(cfg.seed, "batch", step).integers(0, cfg.m_systems,
                                                       size=cfg.batch_size)
        loss_val, grads = _loss_and_grads(weights, ds.tokens[idx])
        if not loss_val <= DIVERGENCE_LOSS:      # a NaN loss fails this too
            checkpoint(step, "ckpt-abort.ckpt")
            cause = "not finite" if np.isnan(loss_val) else f"above {DIVERGENCE_LOSS:.0e}"
            raise TrainingAborted(
                f"loss {loss_val:.3e} is {cause} (batch systems "
                f"{sorted(set(int(i) for i in idx))[:8]}...)", step)

        gnorm, grads = _clip_gradients(grads, cfg.clip_norm)
        adam.apply(weights.arrays, grads)

        loss_rows.append({"step": step, "loss": loss_val, "grad_norm": gnorm,
                          "wallclock_s": time.time() - t0})
        if not quiet and (step % LOG_EVERY == 0 or step == cfg.steps - 1):
            print(f"step {step:6d}  loss {loss_val:.5f}  gnorm {gnorm:.3f}")
        if (step + 1) % cfg.checkpoint_every == 0 and step + 1 < cfg.steps:
            checkpoint(step + 1)

    checkpoint(cfg.steps, "ckpt-final.ckpt")
    return TrainResult(checkpoints, loss_rows, dataset_s)
