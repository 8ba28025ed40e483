"""Decoder-only transformer over continuous output tokens.

The model maps a batch of prompts, each of past outputs y_0..y_t (vectors,
not discrete tokens), to a prediction of the next output at every position:
a learned linear projection embeds each output, pre-layer-norm GPT-2-style
blocks with causal attention mix the sequence, and a linear head reads the
prediction off each position. Forward is a pure function of (weights,
prompts); training records it on an engine Graph, inference runs eagerly.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import engine
from .engine import Tensor
from .manifest import atomic_open

__all__ = [
    "ModelConfig", "TransformerWeights", "CheckpointError", "require_ints",
    "require_positive_reals", "init_weights", "forward", "predict_sequence", "make_tokens",
    "save_checkpoint", "load_checkpoint", "load_training_state",
    "write_tensor_file",
]

DTYPES = {"f32": np.float32, "f64": np.float64}


def require_ints(cfg, names) -> None:
    """Raise TypeError naming the first field of `names` on cfg whose value
    is not an int; a bool or a whole float is not one."""
    for name in names:
        if type(getattr(cfg, name)) is not int:
            raise TypeError(f"{name} must be an integer, got {getattr(cfg, name)!r}")


def require_positive_reals(cfg, names) -> None:
    """Raise TypeError or ValueError naming the first field of `names` on
    cfg whose value is not a finite, positive int or float; a bool is not
    one."""
    for name in names:
        value = getattr(cfg, name)
        if type(value) not in (int, float):
            raise TypeError(f"{name} must be a number, got {value!r}")
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 4
    heads: int = 4
    embed_dim: int = 64
    context: int = 128
    token_dim: int = 5           # width of one prompt entry (y, or y + u)
    output_dim: int = 5          # width of the predicted output
    precision: str = "f32"
    input_scale: float = 1.0     # conditioning only; forward stays in raw units

    def __post_init__(self):
        require_ints(self, ("layers", "heads", "embed_dim", "context", "token_dim",
                            "output_dim"))
        require_positive_reals(self, ("input_scale",))
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")
        if self.precision not in DTYPES:
            raise ValueError(f"precision must be one of {sorted(DTYPES)}")
        if min(self.layers, self.heads, self.context, self.token_dim,
               self.output_dim) < 1:
            raise ValueError("all dimensions must be >= 1")

    @property
    def dtype(self):
        return DTYPES[self.precision]


@dataclass
class TransformerWeights:
    config: ModelConfig
    arrays: dict[str, np.ndarray]


def _layout(cfg: ModelConfig):
    """Ordered (name, shape, init kind) triples; the checkpoint tensor
    directory and the init draw order both follow this order."""
    d, td, od = cfg.embed_dim, cfg.token_dim, cfg.output_dim
    out = [("embed.w", (td, d), "normal"), ("embed.b", (d,), "zeros"),
           ("pos", (cfg.context, d), "normal")]
    for i in range(cfg.layers):
        p = f"h{i}."
        out += [
            (p + "ln1.g", (d,), "ones"), (p + "ln1.b", (d,), "zeros"),
            (p + "attn.wq", (d, d), "normal"), (p + "attn.bq", (d,), "zeros"),
            (p + "attn.wk", (d, d), "normal"), (p + "attn.bk", (d,), "zeros"),
            (p + "attn.wv", (d, d), "normal"), (p + "attn.bv", (d,), "zeros"),
            (p + "attn.wo", (d, d), "normal"), (p + "attn.bo", (d,), "zeros"),
            (p + "ln2.g", (d,), "ones"), (p + "ln2.b", (d,), "zeros"),
            (p + "mlp.w1", (d, 4 * d), "normal"), (p + "mlp.b1", (4 * d,), "zeros"),
            (p + "mlp.w2", (4 * d, d), "normal"), (p + "mlp.b2", (d,), "zeros"),
        ]
    out += [("final.g", (d,), "ones"), ("final.b", (d,), "zeros"),
            ("head.w", (d, od), "normal"), ("head.b", (od,), "zeros")]
    return out


INIT_STD = 0.02


def init_weights(cfg: ModelConfig, rng) -> TransformerWeights:
    """Gaussian(0, 0.02) weight matrices and positional embeddings, zero
    biases, unit layer-norm gains."""
    arrays = {}
    for name, shape, kind in _layout(cfg):
        if kind == "normal":
            arr = INIT_STD * rng.standard_normal(shape)
        elif kind == "ones":
            arr = np.ones(shape)
        else:
            arr = np.zeros(shape)
        arrays[name] = arr.astype(cfg.dtype)
    return TransformerWeights(cfg, arrays)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def make_tokens(ys, us=None) -> np.ndarray:
    """Assemble prompt entries; inputs, when the system has them, are
    concatenated onto the outputs position by position."""
    ys = np.asarray(ys)
    if us is None:
        return ys
    us = np.asarray(us)
    if us.ndim != ys.ndim:
        raise ValueError("inputs must have the same rank as outputs")
    return np.concatenate([ys, us[..., : ys.shape[-2], :]], axis=-1)


def forward(weights: TransformerWeights, tokens):
    """Predictions at every position of a batch of prompts; entry [b, j] is
    the model's estimate of y_{j+1} given tokens 0..j of prompt b.

    tokens: (B, T, token_dim); any other rank raises ValueError. Returns a
    Tensor shaped (B, T, output_dim). Inside `with graph:` the forward is
    recorded on that graph and the parameters are its named leaves (see
    `engine.param`); otherwise it runs eagerly.
    """
    cfg = weights.config
    toks = np.asarray(tokens, dtype=cfg.dtype)
    if toks.ndim != 3:
        raise ValueError(f"tokens must be (batch, T, token_dim), got shape {toks.shape}")
    _, t, td = toks.shape
    if td != cfg.token_dim:
        raise ValueError(f"token dim {td} != configured {cfg.token_dim}")
    if t > cfg.context:
        raise ValueError(f"prompt length {t} exceeds context {cfg.context}")
    if t < 1:
        raise ValueError("empty prompt")
    if cfg.input_scale != 1.0:
        toks = toks * cfg.dtype(cfg.input_scale)

    prm = {name: engine.param(name, arr) for name, arr in weights.arrays.items()}
    x = engine.linear(Tensor(toks), prm["embed.w"], prm["embed.b"])
    x = engine.add(x, _pos_slice(prm["pos"], t))

    for i in range(cfg.layers):
        p = f"h{i}."
        h = engine.layer_norm(x, prm[p + "ln1.g"], prm[p + "ln1.b"])
        q = engine.linear(h, prm[p + "attn.wq"], prm[p + "attn.bq"])
        k = engine.linear(h, prm[p + "attn.wk"], prm[p + "attn.bk"])
        v = engine.linear(h, prm[p + "attn.wv"], prm[p + "attn.bv"])
        av = engine.causal_attention(q, k, v, cfg.heads)
        x = engine.add(x, engine.linear(av, prm[p + "attn.wo"], prm[p + "attn.bo"]))
        h2 = engine.layer_norm(x, prm[p + "ln2.g"], prm[p + "ln2.b"])
        inner = engine.gelu(engine.linear(h2, prm[p + "mlp.w1"], prm[p + "mlp.b1"]))
        x = engine.add(x, engine.linear(inner, prm[p + "mlp.w2"], prm[p + "mlp.b2"]))

    x = engine.layer_norm(x, prm["final.g"], prm["final.b"])
    out = engine.linear(x, prm["head.w"], prm["head.b"])
    if cfg.input_scale != 1.0:
        out = engine.scale(out, 1.0 / cfg.input_scale)
    return out


def _pos_slice(pos: Tensor, t: int) -> Tensor:
    """First t rows of the positional table, shaped (1, t, d); recorded on
    an active graph, the gradient scatters back into the full table."""
    full = pos.data

    def grad(g):
        gp = np.zeros_like(full)
        gp[:t] = g[0]
        return (gp,)

    return engine._emit("pos_slice", full[:t][None], (pos,), grad)


def predict_sequence(weights: TransformerWeights, ys, us=None) -> np.ndarray:
    """All next-output predictions for a batch of trajectories ys (B, T, m),
    with inputs us (B, T' >= T, k) when the system has them: entry [b, j]
    predicts y_{j+1} of trajectory b, as stepping position by position
    would, in one forward pass (the causal mask makes them equal)."""
    return forward(weights, make_tokens(ys, us)).data


# ---------------------------------------------------------------------------
# checkpoint container: JSON header + NUL + little-endian blob + CRC32 of
# all three, so an edited header fails the check as a flipped blob bit does
# ---------------------------------------------------------------------------

class CheckpointError(RuntimeError):
    pass


def write_tensor_file(path, meta: dict, tensors: dict[str, np.ndarray],
                      precision: str) -> None:
    dt = np.dtype(DTYPES[precision]).newbyteorder("<")
    directory = []
    offset = 0
    for name, arr in tensors.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"non-finite values in tensor {name!r}")
        directory.append({"name": name, "shape": list(arr.shape),
                          "offset": offset, "precision": precision})
        offset += arr.size * dt.itemsize
    header = json.dumps({"format": "moplab-tensors-v2", "meta": meta,
                         "tensors": directory}).encode("utf-8") + b"\0"
    crc = zlib.crc32(header)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        for arr in tensors.values():
            raw = np.ascontiguousarray(arr, dtype=dt)
            crc = zlib.crc32(raw, crc)
            fh.write(raw)
        fh.write(crc.to_bytes(4, "little"))


def _read(path) -> tuple[TransformerWeights, dict, dict[str, np.ndarray]]:
    """The weights, the meta and every tensor of a checkpoint file, after
    checking its format, checksum and tensor shapes."""
    with open(path, "rb") as fh:
        data = fh.read()
    sep = data.find(b"\0")
    if sep < 0:
        raise CheckpointError(f"{path}: missing header separator")
    try:
        header = json.loads(data[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if header.get("format") != "moplab-tensors-v2":
        raise CheckpointError(f"{path}: not a moplab-tensors-v2 file")
    if len(data) < sep + 5:
        raise CheckpointError(f"{path}: truncated file")
    if zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise CheckpointError(f"{path}: checksum mismatch")
    blob = memoryview(data)[sep + 1:-4]
    tensors = {}
    for entry in header["tensors"]:
        dt = np.dtype(DTYPES[entry["precision"]]).newbyteorder("<")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        if entry["offset"] + count * dt.itemsize > len(blob):
            raise CheckpointError(f"{path}: tensor {entry['name']!r} overruns blob")
        arr = np.frombuffer(blob, dt, count, entry["offset"]).reshape(shape)
        tensors[entry["name"]] = arr.astype(dt.newbyteorder("="))
    meta = header["meta"]
    if meta.get("kind") != "checkpoint":
        raise CheckpointError(f"{path}: not a model checkpoint")
    cfg = ModelConfig(**meta["config"])
    arrays = {}
    for name, shape, _ in _layout(cfg):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: header {tensors[name].shape}, "
                f"config wants {shape}")
        arrays[name] = tensors[name]
    return TransformerWeights(cfg, arrays), meta, tensors


def save_checkpoint(weights: TransformerWeights, path, optimizer=None) -> None:
    """One file holding the weights and, when `optimizer` is a training
    run's (step, state), its step and each moment of `state` (a dict of
    per-parameter arrays, stored as tensors `opt.<moment>.<name>`)."""
    meta = {"kind": "checkpoint", "config": asdict(weights.config)}
    tensors = dict(weights.arrays)
    if optimizer is not None:
        meta["step"], state = optimizer
        for moment, arrays in state.items():
            tensors.update({f"opt.{moment}.{name}": a for name, a in arrays.items()})
    write_tensor_file(path, meta, tensors, weights.config.precision)


def load_checkpoint(path) -> TransformerWeights:
    """The weights of any checkpoint; optimizer state, if any, is ignored."""
    return _read(path)[0]


def load_training_state(path) -> tuple[TransformerWeights, int, dict]:
    """(weights, step, state) of a checkpoint a training run saved, `state`
    as `save_checkpoint` took it: {moment: {parameter name: array}}."""
    weights, meta, tensors = _read(path)
    if "step" not in meta:
        raise CheckpointError(f"{path}: weights only, no optimizer state to resume from")
    state = {}
    for key, arr in tensors.items():
        if key.startswith("opt."):
            moment, name = key[4:].split(".", 1)
            state.setdefault(moment, {})[name] = arr
    return weights, meta["step"], state
