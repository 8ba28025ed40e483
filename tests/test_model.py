"""Transformer model: init, forward semantics (causality, shapes,
precision), gradient flow end to end, and the checkpoint container."""

import dataclasses
import json
import re
import zlib

import numpy as np
import pytest

from conftest import zero_model
from moplab import engine, model
from moplab.model import (
    CheckpointError, ModelConfig, TransformerWeights, init_weights, load_checkpoint,
    load_training_state, predict_sequence, save_checkpoint,
)
from moplab.seeding import stream

SMALL = ModelConfig(layers=2, heads=2, embed_dim=16, context=32,
                    token_dim=3, output_dim=3, precision="f64")


@pytest.fixture
def small_weights():
    return init_weights(SMALL, stream(0, "w"))


def expected_parameter_total(cfg: ModelConfig) -> int:
    d, td, od = cfg.embed_dim, cfg.token_dim, cfg.output_dim
    per_layer = (
        4 * (d * d + d)            # attention projections + biases
        + d * 4 * d + 4 * d        # mlp in
        + 4 * d * d + d            # mlp out
        + 4 * d                    # two layer norms
    )
    return (td * d + d            # input projection
            + cfg.context * d     # positions
            + cfg.layers * per_layer
            + 2 * d               # final norm
            + d * od + od)        # head


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(heads=3, embed_dim=64)
    with pytest.raises(ValueError):
        ModelConfig(precision="f16")
    with pytest.raises(ValueError):
        ModelConfig(layers=0)


def test_init_deterministic():
    a = init_weights(SMALL, stream(5, "i"))
    b = init_weights(SMALL, stream(5, "i"))
    assert set(a.arrays) == set(b.arrays)
    for k in a.arrays:
        assert np.array_equal(a.arrays[k], b.arrays[k])


def test_param_count_closed_form():
    cfg = ModelConfig(layers=4, heads=4, embed_dim=64, context=128,
                      token_dim=5, output_dim=5)
    weights = init_weights(cfg, stream(1, "c"))
    assert sum(a.size for a in weights.arrays.values()) == expected_parameter_total(cfg)


def test_zero_init_forward_is_zero(small_weights):
    prompt = stream(2).standard_normal((1, 7, 3))
    out = model.forward(zero_model(SMALL), prompt).data
    assert np.array_equal(out, np.zeros((1, 7, 3)))


def test_forward_output_shape(small_weights):
    batch = stream(4).standard_normal((5, 9, 3))
    outb = model.forward(small_weights, batch).data
    assert outb.shape == (5, 9, 3)


def test_forward_causality_bitwise(small_weights):
    rng = stream(6, "caus")
    prompt = rng.standard_normal((1, 12, 3))
    base = model.forward(small_weights, prompt).data
    for j in [0, 4, 10]:
        tampered = prompt.copy()
        tampered[:, j + 1:] += rng.standard_normal(tampered[:, j + 1:].shape)
        out = model.forward(small_weights, tampered).data
        assert np.array_equal(out[:, : j + 1], base[:, : j + 1])
        if j + 1 < 12:
            assert not np.array_equal(out[:, j + 1:], base[:, j + 1:])


def test_forward_prefix_consistency(small_weights):
    # a prefix run equals the sliced full run; not bitwise across prompt
    # lengths (BLAS regroups the masked-zero terms), so tight tolerance
    prompt = stream(7).standard_normal((2, 10, 3))
    full = model.forward(small_weights, prompt).data
    half = model.forward(small_weights, prompt[:, :5]).data
    assert np.allclose(half, full[:, :5], rtol=0, atol=1e-12)


def test_forward_pure_function(small_weights):
    prompt = stream(8).standard_normal((2, 6, 3))
    a = model.forward(small_weights, prompt).data
    b = model.forward(small_weights, prompt).data
    assert np.array_equal(a, b)


def test_forward_rejects_bad_prompts(small_weights):
    with pytest.raises(ValueError, match="exceeds context"):
        model.forward(small_weights, np.zeros((1, 33, 3)))
    with pytest.raises(ValueError, match="token dim"):
        model.forward(small_weights, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="empty prompt"):
        model.forward(small_weights, np.zeros((1, 0, 3)))
    for shape in [(4, 3), (1, 1, 4, 3)]:                    # batches only
        with pytest.raises(ValueError, match="batch"):
            model.forward(small_weights, np.zeros(shape))
        with pytest.raises(ValueError, match="batch"):
            predict_sequence(small_weights, np.zeros(shape))


def test_position_sensitivity(small_weights):
    rng = stream(9, "perm")
    prompt = rng.standard_normal((8, 3))
    permuted = prompt[rng.permutation(8)]
    last = predict_sequence(small_weights, np.stack([prompt, permuted]))[:, -1]
    assert not np.allclose(last[1], last[0])


def test_predict_sequence_stress_large_entries(small_weights):
    prompt = stream(11).uniform(-1e3, 1e3, (2, 12, 3))
    out = predict_sequence(small_weights, prompt)
    assert np.isfinite(out).all()


def test_dual_precision_agreement():
    cfg64 = ModelConfig(layers=2, heads=2, embed_dim=16, context=32,
                        token_dim=3, output_dim=3, precision="f64")
    w64 = init_weights(cfg64, stream(12, "p"))
    w32 = TransformerWeights(dataclasses.replace(cfg64, precision="f32"),
                             {k: a.astype(np.float32) for k, a in w64.arrays.items()})
    prompt = stream(13).standard_normal((2, 10, 3))
    o64 = model.forward(w64, prompt).data
    o32 = model.forward(w32, prompt).data.astype(np.float64)
    rel = np.abs(o64 - o32).max() / max(np.abs(o64).max(), 1e-9)
    assert rel <= 1e-2


def test_input_scale_conditions_but_keeps_raw_units():
    cfg = dataclasses.replace(SMALL, input_scale=0.1)
    w = init_weights(cfg, stream(14, "s"))
    prompt = stream(15).standard_normal((2, 6, 3)) * 10
    out = model.forward(w, prompt).data
    assert np.isfinite(out).all()
    # the scaled model sees tokens 10x smaller; its raw-unit output is the
    # head output un-scaled, so magnitudes stay comparable to the unscaled rig
    w1 = TransformerWeights(SMALL, dict(w.arrays))
    out_ref = model.forward(w1, prompt * 0.1).data / 0.1
    assert np.allclose(out, out_ref, rtol=1e-12)


def test_end_to_end_gradients_vs_finite_differences():
    # 20 random scalar parameters of the training loss, 64-bit, small model
    cfg = SMALL
    weights = init_weights(cfg, stream(16, "fd"))
    ys = stream(17).standard_normal((2, 8, 3))

    def loss_value():
        from moplab.training import batch_loss
        return batch_loss(weights, ys).item()

    from moplab.training import batch_loss
    g = engine.Graph()
    with g:
        loss = batch_loss(weights, ys)
    grads = engine.backward(g, loss)

    rng = stream(18, "fd")
    names = list(weights.arrays)
    h = 1e-6
    for _ in range(20):
        name = names[int(rng.integers(len(names)))]
        arr = weights.arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        ad = grads[name][idx]
        keep = arr[idx]
        arr[idx] = keep + h
        lp = loss_value()
        arr[idx] = keep - h
        lm = loss_value()
        arr[idx] = keep
        fd = (lp - lm) / (2 * h)
        assert ad == pytest.approx(fd, rel=1e-3, abs=1e-9), name


def test_weights_unreached_by_loss_get_zero_grad(small_weights):
    # a one-token prompt never exercises positions 1+ of the table
    from moplab.training import batch_loss
    ys = stream(19).standard_normal((1, 2, 3))
    g = engine.Graph()
    with g:
        loss = batch_loss(small_weights, ys)
    grads = engine.backward(g, loss)
    gpos = grads["pos"]
    assert np.array_equal(gpos[1:], np.zeros_like(gpos[1:]))
    assert not np.array_equal(gpos[0], np.zeros_like(gpos[0]))


def test_desk_step_tape_size():
    # the desk training step's tape: 71 parameter leaves, one linear node per
    # projection and one causal_attention node per layer, no reshape or matmul
    from collections import Counter

    from moplab.presets import desk_model_config
    from moplab.training import batch_loss
    cfg = desk_model_config("linear-dense")
    weights = init_weights(cfg, stream(22, "tape"))
    b, t = 2, 49
    g = engine.Graph()
    with g:
        batch_loss(weights, stream(23).standard_normal((b, t + 1, cfg.output_dim)))
    ops = Counter(node.op for node in g.nodes)
    assert len(g.nodes) == 127
    assert ops["leaf"] == len(weights.arrays) == 71
    assert ops["linear"] == 26
    assert ops["causal_attention"] == 4
    assert ops["reshape"] == ops["matmul"] == 0
    # elements the tape holds: the parameters and activations no wider than
    # the MLP's 4d, so no (b, heads, t, t) score array: 18 (b, t, d) arrays
    # per layer, 3 more plus the positional slice around the blocks, and the
    # prediction, residual, per-position loss and the loss itself
    d, od = cfg.embed_dim, cfg.output_dim
    activations = ((18 * cfg.layers + 3) * b * t * d + t * d
                   + 2 * b * t * od + b * t + 1)
    elements = sum(int(np.prod(node.out_shape)) for node in g.nodes)
    params = sum(a.size for a in weights.arrays.values())
    assert elements == params + activations == 683580


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path, small_weights):
    path = tmp_path / "model.ckpt"
    prompt = stream(20).standard_normal((2, 8, 3))
    before = model.forward(small_weights, prompt).data
    save_checkpoint(small_weights, path)
    loaded = load_checkpoint(path)
    assert loaded.config == small_weights.config
    for k in small_weights.arrays:
        assert np.array_equal(loaded.arrays[k], small_weights.arrays[k])
    after = model.forward(loaded, prompt).data
    assert np.array_equal(before, after)


def test_checkpoint_truncation_detected(tmp_path, small_weights):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_weights, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_corruption_detected(tmp_path, small_weights):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_weights, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_tensor_file_bytes_are_header_nul_blob_crc(tmp_path):
    # the CRC32 covers every byte before it: header, NUL and blob
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.float64(-1.5),
               "c": np.ones((3, 1)).T}                      # not C-contiguous
    path = tmp_path / "t.ckpt"
    model.write_tensor_file(path, {"kind": "test"}, tensors, "f32")
    blob = b"".join(np.asarray(a, dtype="<f4").tobytes() for a in tensors.values())
    offsets = [0, 24, 28]
    header = json.dumps({"format": "moplab-tensors-v2", "meta": {"kind": "test"},
                         "tensors": [{"name": n, "shape": list(np.shape(a)), "offset": o,
                                      "precision": "f32"}
                                     for (n, a), o in zip(tensors.items(), offsets)]})
    body = header.encode() + b"\0" + blob
    assert path.read_bytes() == body + zlib.crc32(body).to_bytes(4, "little")


def test_checkpoint_header_edit_detected(tmp_path, small_weights):
    # one tensor's offset moved by 4 bytes, same length: the blob is intact,
    # and only a checksum over the header catches it
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_weights, path)
    data = path.read_bytes()
    sep = data.index(b"\0")
    header = json.loads(data[:sep])
    entry = next(e for e in header["tensors"] if e["name"] == "embed.b")
    old = f'"offset": {entry["offset"]},'.encode()
    new = f'"offset": {entry["offset"] + 4},'.encode()
    assert len(old) == len(new) and data[:sep].count(old) == 1
    path.write_bytes(data.replace(old, new, 1))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(path)


def test_previous_format_is_reported_as_such(tmp_path, small_weights):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_weights, path)
    path.write_bytes(path.read_bytes().replace(b"moplab-tensors-v2", b"moplab-tensors-v1", 1))
    with pytest.raises(CheckpointError, match="not a moplab-tensors-v2 file"):
        load_checkpoint(path)


def test_training_state_roundtrip(tmp_path, small_weights):
    path = tmp_path / "model.ckpt"
    draw = stream(22)
    state = {moment: {k: draw.standard_normal(a.shape) for k, a in small_weights.arrays.items()}
             for moment in ("m", "v")}
    save_checkpoint(small_weights, path, optimizer=(7, state))
    weights, step, loaded = load_training_state(path)
    assert step == 7
    assert loaded.keys() == state.keys()
    for moment in state:
        assert list(loaded[moment]) == list(small_weights.arrays)
        for k, a in state[moment].items():
            assert np.array_equal(loaded[moment][k], a)
    # the weights read the same either way, and carry no optimizer tensors
    plain = load_checkpoint(path)
    for w in (weights, plain):
        assert w.config == small_weights.config
        assert list(w.arrays) == list(small_weights.arrays)
        for k, a in small_weights.arrays.items():
            assert np.array_equal(w.arrays[k], a)


def test_weight_only_checkpoint_has_no_training_state(tmp_path, small_weights):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_weights, path)
    with pytest.raises(CheckpointError, match=f"{path}: weights only"):
        load_training_state(path)


def _misshapen_head_bias(state):
    state["m"]["head.b"] = np.zeros(state["m"]["head.b"].size + 1)
    return state


# each file is well-formed with a valid CRC, and carries the step of a
# training run beside moments that cannot resume it
@pytest.mark.parametrize("edit", [
    lambda state: {},
    lambda state: {"m": state["m"]},
    _misshapen_head_bias,
], ids=["no-moments", "no-second-moment", "misshapen-moment"])
def test_training_state_without_adams_moments_names_the_file(tmp_path, small_weights, edit):
    path = tmp_path / "model.ckpt"
    state = edit({moment: {k: np.zeros_like(a) for k, a in small_weights.arrays.items()}
                  for moment in ("m", "v")})
    save_checkpoint(small_weights, path, optimizer=(3, state))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: optimizer state")):
        load_training_state(path)


def test_checkpoint_shape_mismatch_detected(tmp_path, small_weights):
    # a well-formed file whose config lies about the tensors' shapes
    path = tmp_path / "model.ckpt"
    config = {**dataclasses.asdict(SMALL), "embed_dim": 32}
    model.write_tensor_file(path, {"kind": "checkpoint", "config": config},
                            small_weights.arrays, SMALL.precision)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        load_checkpoint(path)


def _with_crc(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "little")


def _v2_header(meta, tensors) -> bytes:
    return json.dumps({"format": "moplab-tensors-v2", "meta": meta,
                       "tensors": tensors}).encode() + b"\0"


def _write_overrun(path, weights):
    entry = {"name": "a", "shape": [100], "offset": 0, "precision": "f64"}
    path.write_bytes(_with_crc(_v2_header({"kind": "checkpoint"}, [entry])
                               + np.zeros(1).tobytes()))


def _write_without_a_tensor(path, weights):
    arrays = dict(weights.arrays)
    del arrays["head.w"]
    model.write_tensor_file(path, {"kind": "checkpoint",
                                   "config": dataclasses.asdict(SMALL)},
                            arrays, SMALL.precision)


def _edited_header(edit):
    """A writer of a checkpoint whose header is `edit(header)`, with the CRC
    taken over the edit."""
    def write(path, weights):
        save_checkpoint(weights, path)
        data = path.read_bytes()
        sep = data.index(b"\0")
        header = edit(json.loads(data[:sep]))
        path.write_bytes(_with_crc(json.dumps(header).encode() + data[sep:-4]))
    return write


def _without(key):
    return _edited_header(lambda h: {k: v for k, v in h.items() if k != key})


def _with_config(**changes):
    return _edited_header(lambda h: {**h, "meta": {
        **h["meta"], "config": {**h["meta"]["config"], **changes}}})


def _with_every_tensor(**changes):
    return _edited_header(lambda h: {**h, "tensors": [{**e, **changes} for e in h["tensors"]]})


@pytest.mark.parametrize("write, error", [
    (lambda path, w: path.write_bytes(b"no separator anywhere"),
     "missing header separator"),
    (lambda path, w: path.write_bytes(b"{not json\0" + bytes(8)), "corrupt header"),
    (lambda path, w: path.write_bytes(_v2_header({}, []) + b"abc"), "truncated file"),
    (_write_overrun, "tensor 'a' overruns blob"),
    (lambda path, w: model.write_tensor_file(path, {"kind": "test"},
                                             {"a": np.ones(2)}, "f64"),
     "not a model checkpoint"),
    (_write_without_a_tensor, "missing tensor 'head.w'"),
    (_without("tensors"), "malformed header: KeyError('tensors')"),
    (_without("meta"), "malformed header: KeyError('meta')"),
    (_with_every_tensor(precision="f16"), "malformed header: KeyError('f16')"),
    (_with_every_tensor(offset=-8), "malformed header: ValueError("),
    (_with_config(layers="x"),
     "malformed header: TypeError(\"layers must be an integer, got 'x'\")"),
    (_with_config(depth=3), "malformed header: TypeError("),
    (_edited_header(lambda h: [h]), "not a moplab-tensors-v2 file"),
], ids=["missing-separator", "corrupt-header", "truncated", "overrun",
        "not-a-checkpoint", "missing-tensor", "no-tensor-directory", "no-meta",
        "unknown-precision", "negative-offset", "non-integer-config", "unknown-config-key",
        "header-a-list"])
def test_malformed_checkpoint_names_its_fault(tmp_path, small_weights, write, error):
    path = tmp_path / "model.ckpt"
    write(path, small_weights)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {error}")):
        load_checkpoint(path)


def test_predict_sequence_matches_stepping(small_weights):
    ys = stream(21).standard_normal((2, 9, 3))
    batched = predict_sequence(small_weights, ys[:, :-1])
    stepped = np.stack([predict_sequence(small_weights, ys[:, : t + 1])[:, -1]
                        for t in range(8)], axis=1)
    assert np.allclose(batched, stepped, rtol=0, atol=1e-12)
