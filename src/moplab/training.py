"""Meta-training: minimize the mean next-output error ||yhat - y|| over M
source systems, one fixed length-T trajectory each.

The dataset is a list of sampled systems; each system's trajectory is
rolled from its seed the first time a batch draws it and cached, so the
training data is the M*T outputs the excess-risk guarantee counts. A step
records its batch on one tape per chunk of TRAIN_CHUNK trajectories and
sums the chunks' gradients, so the tape it holds does not grow with the
batch. The optimizer is Adam with gradient-norm clipping; every draw is
seeded, so a (config, seed) pair reproduces the loss trace bit for bit.
On glibc, the heap a chunk frees stays in the process while `train` runs,
so the next chunk reuses it instead of faulting fresh pages in, and is
handed back to the OS when `train` returns. The dataset is recorded by its
config and one sha256 over its systems, so the record does not grow with M.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine, model
from .distributions import Distribution, get_distribution
from .model import ModelConfig, TransformerWeights
from .seeding import stream
from .systems import systems_sha256

__all__ = [
    "TrainConfig", "MetaDataset", "TrainingAborted", "TrainResult",
    "build_meta_dataset", "batch_loss", "train",
]

DIVERGENCE_LOSS = 1e6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
LOG_EVERY = 50                       # steps between progress lines when not quiet

# Trajectories per tape in a training step (gradients summed over the
# chunks). The tape grows linearly with the chunk: traced by tracemalloc, a
# desk chunk of 8 trajectories of 50 outputs retains a 7.9 MB tape, and its
# forward and backward peak at 8.6 MB; a chunk of 16 retains 16.4 MB, and
# its forward peaks at 17.8 MB. On a 2-core x86 VM with BLAS at one thread,
# desk batch-64 steps took 102.0, 90.9, 93.0 and 97.2 ms in chunks of 4, 8,
# 16 and 32 (30 interleaved rounds in one process).
TRAIN_CHUNK = 8

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
    """Sampled source systems plus the one trajectory each is trained on."""

    def __init__(self, dist: Distribution, m_systems, train_len, seed):
        self.dist = dist
        self.m_systems = m_systems
        self.train_len = train_len
        self.seed = seed
        self.systems = [dist.sample_system(seed, "train", i)
                        for i in range(m_systems)]
        self._cache: dict[int, tuple] = {}

    def trajectory(self, i):
        """(ys, us) for system i: rolled from its seed on first use, then
        cached."""
        if i not in self._cache:
            traj = self.dist.make_trajectory(self.systems[i], self.train_len,
                                             self.seed, "train", i)
            self._cache[i] = (traj.ys, traj.us)
        return self._cache[i]

    def manifest(self) -> dict:
        """The dataset's config and the sha256 of its systems (see
        `systems_sha256`): the same size at any M."""
        return {
            "preset": self.dist.name,
            "m_systems": self.m_systems,
            "train_len": self.train_len,
            "seed": self.seed,
            "role": "train",
            "systems_sha256": systems_sha256(self.systems),
        }


def build_meta_dataset(preset, m_systems, train_len, seed) -> MetaDataset:
    return MetaDataset(get_distribution(preset), m_systems, train_len, seed)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def batch_loss(weights: TransformerWeights, ys, us=None) -> engine.Tensor:
    """Mean next-output prediction error ||yhat - y|| over a batch of
    trajectories.

    One forward pass per trajectory scores every position; the mean runs
    over all (trajectory, position) prediction terms in trajectory-major,
    time-minor order. Inside `with graph:` the loss is recorded on that
    graph, with the weights as its named leaves.
    """
    ys = np.asarray(ys)
    if ys.ndim != 3 or ys.shape[1] < 2:
        raise ValueError(f"ys must be a batch (B, T >= 2, m), got shape {ys.shape}")
    tokens = model.make_tokens(ys[:, :-1], us)
    preds = model.forward(weights, tokens)
    targets = ys[:, 1:].astype(weights.config.dtype)
    resid = engine.sub(preds, engine.Tensor(targets))
    return engine.mean_all(engine.l2norm_lastdim(resid))


def _loss_and_grads(weights: TransformerWeights, ys, us):
    """The batch's `batch_loss` value and its gradient per parameter name,
    taped one chunk of TRAIN_CHUNK trajectories at a time.

    Each chunk's loss is scaled by its share of the batch, so the chunks sum
    to the batch mean; a chunk's backward consumes its tape before the next
    one is recorded, which bounds the activations held to one chunk's. A
    batch of one chunk is scaled by 1, and its loss and gradients are bit
    for bit those of one graph.
    """
    n = len(ys)
    loss, grads = 0.0, {}
    for lo in range(0, n, TRAIN_CHUNK):
        rows = slice(lo, lo + TRAIN_CHUNK)
        tape = engine.Graph()
        with tape:
            part = engine.scale(
                batch_loss(weights, ys[rows], None if us is None else us[rows]),
                len(ys[rows]) / n)
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
    """What one `train` call wrote and measured; the caller holds its
    config."""
    checkpoints: list                # paths in write order; the last is the final one
    loss_rows: list                  # dicts: step, loss, grad_norm, wallclock_s
    dataset_manifest: dict           # MetaDataset.manifest(): config and systems' sha256
    dataset_s: float                 # building the dataset, before the steps' clock


@_retained_heap()
def train(cfg: TrainConfig, out_dir, resume=None, quiet=True) -> TrainResult:
    """Run the meta-training loop, writing periodic checkpoints and a loss
    log under out_dir. Each checkpoint is one file holding the weights, the
    Adam moments and the step. `resume` continues from a checkpoint path
    written by an earlier (identically configured) run; the loss trace
    continues exactly where the interrupted run would have gone. A
    checkpoint of another model config, or past `cfg.steps`, raises
    `model.CheckpointError` before out_dir is made.

    Each step takes the batch loss and gradients chunk by chunk (see
    `_loss_and_grads`), then clips and applies one Adam update. A loss
    that is not finite or exceeds DIVERGENCE_LOSS writes the weights the
    step started from to ckpt-abort.ckpt and raises `TrainingAborted`.

    The result's `dataset_s` times the dataset build, which runs before the
    clock of the loss rows' `wallclock_s` starts.
    """
    if resume is not None:
        weights, start_step, state = model.load_training_state(resume)
        if weights.config != cfg.model:
            raise model.CheckpointError(
                f"{resume}: checkpoint model {weights.config} does not match "
                f"the config's model {cfg.model}")
        if start_step > cfg.steps:
            raise model.CheckpointError(
                f"{resume}: checkpoint is at step {start_step}, past the "
                f"config's {cfg.steps} steps")
        adam = _Adam(cfg.lr, weights.arrays, start_step, state)
    else:
        weights = model.init_weights(cfg.model, stream(cfg.seed, "init"))
        adam = _Adam(cfg.lr, weights.arrays)
        start_step = 0
    t_data = time.perf_counter()
    ds = build_meta_dataset(cfg.preset, cfg.m_systems, cfg.train_len, cfg.seed)
    dataset_s = time.perf_counter() - t_data

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoints = []
    loss_rows = []
    t0 = time.time()

    def checkpoint(step, tag=None):
        path = out_dir / (tag or f"ckpt-{step:06d}.ckpt")
        model.save_checkpoint(weights, path, optimizer=(step, adam.state))
        checkpoints.append(str(path))

    for step in range(start_step, cfg.steps):
        idx = stream(cfg.seed, "batch", step).integers(0, cfg.m_systems,
                                                       size=cfg.batch_size)
        ys_list, us_list = [], []
        for i in idx:
            ys, us = ds.trajectory(int(i))
            ys_list.append(ys)
            us_list.append(us)
        ys = np.stack(ys_list)
        us = np.stack(us_list) if us_list[0] is not None else None

        loss_val, grads = _loss_and_grads(weights, ys, us)
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
    return TrainResult(checkpoints, loss_rows, ds.manifest(), dataset_s)
