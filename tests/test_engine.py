"""Tensor engine: op semantics, exact reverse-mode gradients vs central
finite differences, the tape's memory contract, and the small-matrix
linear algebra oracles."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moplab import engine, linalg, model, presets, training
from moplab.engine import Graph, Tensor
from moplab.model import ModelConfig
from moplab.seeding import stream


def eager(fn, arrays):
    return fn({k: Tensor(v) for k, v in arrays.items()}).item()


def ad_grads(fn, arrays):
    g = Graph()
    with g:
        loss = fn({k: engine.param(k, v) for k, v in arrays.items()})
    return engine.backward(g, loss), loss.item()


def fd_grads(fn, arrays, h=1e-4):
    out = {}
    for k, arr in arrays.items():
        fd = np.zeros_like(arr)
        flat = arr.ravel()
        fdf = fd.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            lp = eager(fn, arrays)
            flat[i] = keep - h
            lm = eager(fn, arrays)
            flat[i] = keep
            fdf[i] = (lp - lm) / (2 * h)
        out[k] = fd
    return out


def check_grads(fn, arrays, tol=1e-4, h=1e-4):
    ad, _ = ad_grads(fn, arrays)
    fd = fd_grads(fn, arrays, h=h)
    for k in arrays:
        denom = max(np.linalg.norm(fd[k]), 1e-12)
        rel = np.linalg.norm(ad[k] - fd[k]) / denom
        assert rel <= tol, f"{k}: relative gradient error {rel:.3e}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = engine.matmul(Tensor(a), Tensor(np.eye(2))).data
    assert np.array_equal(out, a)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    out = engine.matmul(Tensor(a), Tensor(b)).data
    assert np.array_equal(out, [[17.0], [39.0]])


def test_matmul_vs_triple_loop(rng):
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((5, 3))
    naive = np.zeros((7, 3))
    for i in range(7):
        for j in range(3):
            for k in range(5):
                naive[i, j] += a[i, k] * b[k, j]
    out = engine.matmul(Tensor(a), Tensor(b)).data
    assert np.abs(out - naive).max() <= 1e-12 * max(1.0, np.abs(naive).max())


def test_matmul_dim_mismatch():
    with pytest.raises(engine.ShapeError):
        engine.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_associativity(rng):
    a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
    ab_c = engine.matmul(engine.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
    a_bc = engine.matmul(Tensor(a), engine.matmul(Tensor(b), Tensor(c))).data
    assert np.abs(ab_c - a_bc).max() <= 1e-10 * np.abs(a_bc).max()


def test_matmul_batched_matches_loop(rng):
    a = rng.standard_normal((3, 2, 4, 5))
    b = rng.standard_normal((3, 2, 5, 6))
    out = engine.matmul(Tensor(a), Tensor(b)).data
    for i in range(3):
        for j in range(2):
            assert np.allclose(out[i, j], a[i, j] @ b[i, j], atol=1e-12)


# ---------------------------------------------------------------------------
# softmax / layer norm / gelu
# ---------------------------------------------------------------------------

def test_softmax_uniform_row():
    out = engine.rowwise_softmax(Tensor(np.zeros(3))).data
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_extreme_row_no_overflow():
    out = engine.rowwise_softmax(Tensor(np.array([1000.0, 0.0]))).data
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_rows_sum_to_one(rng):
    x = rng.standard_normal((6, 9)) * 3
    out = engine.rowwise_softmax(Tensor(x)).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12
    assert (out >= 0).all()


def test_layer_norm_constant_row_maps_to_zero():
    x = np.full((4,), 2.5)
    out = engine.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
    assert np.allclose(out, 0.0, atol=1e-12)


def test_layer_norm_zero_mean_unit_variance(rng):
    x = rng.standard_normal((8, 16)) * 4 + 1.0
    out = engine.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() <= 1e-10
    assert np.abs(out.std(axis=-1) - 1.0).max() <= 1e-3   # eps shrinks it slightly


@pytest.mark.parametrize("d", [5, 7])
def test_layer_norm_at_inexact_widths_matches_direct_formula(d, rng):
    # 1/d is inexact, so the op's GEMV means round unlike np.mean
    x = rng.standard_normal((3, 4, d)) * 3 + 1.0
    gain, bias = rng.standard_normal(d), rng.standard_normal(d)
    up = rng.standard_normal(x.shape)
    g = Graph()
    with g:
        out = engine.layer_norm(engine.param("x", x), engine.param("gain", gain),
                                engine.param("bias", bias))
    dx, dgain, dbias = out.node.grad_fn(up)

    mu = x.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + engine.LAYER_NORM_EPS)
    xhat = (x - mu) / sigma
    dxhat = up * gain
    ref_dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / sigma
    for got, ref in ((out.data, xhat * gain + bias), (dx, ref_dx),
                     (dgain, (up * xhat).sum(axis=(0, 1))), (dbias, up.sum(axis=(0, 1)))):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12


def test_linear_backward_matches_direct_formula_and_skips_a_constant_input(rng):
    # the bias gradient is a GEMV with ones, so it rounds unlike a numpy sum
    x = rng.standard_normal((3, 4, 5))
    w, b = rng.standard_normal((5, 2)), rng.standard_normal(2)
    up = rng.standard_normal((3, 4, 2))
    g = Graph()
    with g:
        taped = engine.linear(engine.param("x", x), engine.param("w", w),
                              engine.param("b", b))
        const = engine.linear(Tensor(x), engine.param("w", w), engine.param("b", b))
    dx, dw, db = taped.node.grad_fn(up)
    for got, ref in ((dx, up @ w.T), (dw, np.einsum("btk,btn->kn", x, up)),
                     (db, up.sum(axis=(0, 1)))):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12
    dx_const, dw_const, db_const = const.node.grad_fn(up)
    assert dx_const is None       # no gradient for the model's tokens
    assert np.array_equal(dw_const, dw) and np.array_equal(db_const, db)


def test_gelu_zero():
    assert engine.gelu(Tensor(np.array(0.0))).item() == 0.0


def test_gelu_matches_tanh_formula(rng):
    x = rng.standard_normal(64) * 2
    c = np.sqrt(2 / np.pi)
    ref = 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x**3)))
    out = engine.gelu(Tensor(x)).data
    assert np.allclose(out, ref, atol=1e-12)


def gelu_grad_closed_form(x, g):
    """The gelu backward as it was when it rebuilt the derivative from x*x
    and tanh(u) on the tape, operation for operation."""
    x2 = x * x
    t = np.empty_like(x)
    np.multiply(x2, x, out=t)
    t *= 0.044715
    t += x
    t *= engine._GELU_C
    np.tanh(t, out=t)
    d = x2 * (3 * 0.044715)
    d += 1.0
    d *= engine._GELU_C
    tt = t * t
    np.subtract(1.0, tt, out=tt)
    d *= tt
    d *= x
    d += t
    d += 1.0
    d *= 0.5
    d *= g
    return d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_gradient_bit_identical_to_closed_form(dtype, rng):
    x = (rng.standard_normal((3, 7, 16)) * 3).astype(dtype)
    up = rng.standard_normal(x.shape).astype(dtype)
    g = Graph()
    with g:
        out = engine.gelu(engine.param("x", x))
    (dx,) = out.node.grad_fn(up)
    assert dx.dtype == dtype
    assert np.array_equal(dx, gelu_grad_closed_form(x, up))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_of_squares(rng):
    x = rng.standard_normal(7)

    def fn(p):
        return engine.mean_all(engine.scale(engine.mul(p["x"], p["x"]), 7.0))

    ad, _ = ad_grads(fn, {"x": x})
    assert np.allclose(ad["x"], 2 * x, atol=1e-12)


def test_backward_linear_residual_norm_vs_fd(rng):
    w = rng.standard_normal((4, 3))
    x = rng.standard_normal((3, 1))
    y = rng.standard_normal((4, 1))

    def fn(p):
        resid = engine.sub(engine.matmul(p["w"], p["x"]), Tensor(y))
        return engine.mean_all(engine.l2norm_lastdim(engine.reshape(resid, (1, 4))))

    check_grads(fn, {"w": w, "x": x}, tol=1e-4, h=1e-4)


def test_backward_unused_parameter_zero_grad(rng):
    # every parameter gets a gradient, keyed by name in registration order;
    # one the loss never reached gets zeros of its shape and dtype
    x = rng.standard_normal(5)
    g = Graph()
    with g:
        engine.param("unused", np.ones(3, dtype=np.float32))
        lx = engine.param("x", x)
        loss = engine.mean_all(engine.mul(lx, lx))
    grads = engine.backward(g, loss)
    assert list(grads) == ["unused", "x"]
    assert grads["unused"].dtype == np.float32
    assert np.array_equal(grads["unused"], np.zeros(3))
    assert np.allclose(grads["x"], 2 * x / 5, rtol=1e-15, atol=0)


def test_backward_rejects_non_scalar_loss(rng):
    g = Graph()
    with g:
        x = engine.param("x", rng.standard_normal(4))
        out = engine.mul(x, x)
    with pytest.raises(engine.NonScalarLossError):
        engine.backward(g, out)


def test_backward_rejects_detached_loss():
    g = Graph()
    with pytest.raises(ValueError):
        engine.backward(g, Tensor(np.array(1.0)))


OPS = ["add", "sub", "mul", "scale", "matmul", "transpose", "reshape",
       "rowwise_softmax", "layer_norm", "gelu", "sum_lastdim", "mean_all",
       "l2norm_lastdim", "matmul_linear", "linear", "causal_attention"]


def op_builders(rng):
    """Per op case: a scalar loss through that op, and its input arrays."""
    r = Tensor(rng.standard_normal((3, 4)))

    def reduce(t):
        return engine.mean_all(engine.mul(t, r))

    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    r3 = Tensor(rng.standard_normal(3))
    builders = {
        "add": (lambda p: reduce(engine.add(p["x"], p["y"])), {"x": x, "y": y}),
        "sub": (lambda p: reduce(engine.sub(p["x"], p["y"])), {"x": x, "y": y}),
        "mul": (lambda p: reduce(engine.mul(p["x"], p["y"])), {"x": x, "y": y}),
        "scale": (lambda p: reduce(engine.scale(p["x"], -1.7)), {"x": x}),
        "matmul": (
            lambda p: reduce(engine.matmul(p["a"], p["b"])),
            {"a": rng.standard_normal((3, 5)), "b": rng.standard_normal((5, 4))}),
        "transpose": (
            lambda p: reduce(engine.transpose(p["x"], (1, 0))),
            {"x": rng.standard_normal((4, 3))}),
        "reshape": (
            lambda p: reduce(engine.reshape(p["x"], (3, 4))),
            {"x": rng.standard_normal(12)}),
        "rowwise_softmax": (
            lambda p: reduce(engine.rowwise_softmax(p["x"])), {"x": x.copy()}),
        "layer_norm": (
            lambda p: reduce(engine.layer_norm(p["x"], p["g"], p["b"])),
            {"x": x.copy(), "g": rng.standard_normal(4), "b": rng.standard_normal(4)}),
        "gelu": (lambda p: reduce(engine.gelu(p["x"])), {"x": x.copy()}),
        "sum_lastdim": (
            lambda p: engine.mean_all(engine.mul(engine.sum_lastdim(p["x"]), r3)),
            {"x": x.copy()}),
        "mean_all": (lambda p: engine.mean_all(p["x"]), {"x": x.copy()}),
        "l2norm_lastdim": (
            lambda p: engine.mean_all(engine.mul(engine.l2norm_lastdim(p["x"]), r3)),
            {"x": x.copy() + 0.5}),   # keep residual away from the kink at 0
        # (B, T, k) @ (k, n) with a non-contiguous left operand, like the
        # transposed attention output entering the output projection
        "matmul_linear": (
            lambda p: reduce(engine.matmul(engine.transpose(p["a"], (0, 2, 1)), p["b"])),
            {"a": rng.standard_normal((2, 5, 3)), "b": rng.standard_normal((5, 4))}),
        # a non-contiguous (B, T, k) input, flattened into one GEMM
        "linear": (
            lambda p: reduce(engine.linear(engine.transpose(p["x"], (0, 2, 1)), p["w"], p["b"])),
            {"x": rng.standard_normal((2, 5, 3)), "w": rng.standard_normal((5, 4)),
             "b": rng.standard_normal(4)}),
        "causal_attention": (
            lambda p: reduce(engine.causal_attention(p["q"], p["k"], p["v"], 2)),
            {"q": rng.standard_normal((2, 3, 4)), "k": rng.standard_normal((2, 3, 4)),
             "v": rng.standard_normal((2, 3, 4))}),
    }
    return builders


@pytest.mark.parametrize("op_name", OPS)
def test_gradcheck_every_op(op_name, rng):
    fn, arrays = op_builders(rng)[op_name]
    check_grads(fn, arrays, tol=1e-4, h=1e-4)


def test_l2norm_gradient_at_zero_is_zero():
    g = Graph()
    with g:
        loss = engine.mean_all(engine.l2norm_lastdim(engine.param("x", np.zeros((2, 3)))))
    grads = engine.backward(g, loss)
    assert np.array_equal(grads["x"], np.zeros((2, 3)))
    assert np.isfinite(grads["x"]).all()


def test_broadcast_add_gradient(rng):
    x = rng.standard_normal((5, 4))
    b = rng.standard_normal(4)
    r = Tensor(rng.standard_normal((5, 4)))

    def fn(p):
        return engine.mean_all(engine.mul(engine.add(p["x"], p["b"]), r))

    check_grads(fn, {"x": x, "b": b})


# ---------------------------------------------------------------------------
# causal attention
# ---------------------------------------------------------------------------

def composed_attention(q, k, v, heads):
    """Causal attention as a chain of the public ops: split heads, q.k^T,
    scale, mask add, softmax, mix v, merge heads."""
    b, t, d = q.shape
    dh = d // heads

    def split(x):
        return engine.transpose(engine.reshape(x, (b, t, heads, dh)), (0, 2, 1, 3))

    mask = Tensor(np.triu(np.full((t, t), engine.CAUSAL_MASK_FILL), k=1)[None, None])
    scores = engine.scale(engine.matmul(split(q), engine.transpose(split(k), (0, 1, 3, 2))),
                          1.0 / np.sqrt(dh))
    probs = engine.rowwise_softmax(engine.add(scores, mask))
    return engine.reshape(engine.transpose(engine.matmul(probs, split(v)), (0, 2, 1, 3)),
                          (b, t, d))


def test_causal_attention_equals_composed_chain(rng):
    qkv = {c: rng.standard_normal((3, 7, 8)) for c in "qkv"}
    r = Tensor(rng.standard_normal((3, 7, 8)))
    fused = engine.causal_attention(*(Tensor(qkv[c]) for c in "qkv"), heads=2).data
    chain = composed_attention(*(Tensor(qkv[c]) for c in "qkv"), heads=2).data
    assert np.array_equal(fused, chain)

    def fn_fused(p):
        return engine.mean_all(engine.mul(engine.causal_attention(p["q"], p["k"], p["v"], 2), r))

    def fn_chain(p):
        return engine.mean_all(engine.mul(composed_attention(p["q"], p["k"], p["v"], 2), r))

    ga, la = ad_grads(fn_fused, qkv)
    gb, lb = ad_grads(fn_chain, qkv)
    assert la == lb
    for c in "qkv":
        assert np.abs(ga[c] - gb[c]).max() <= 1e-12


def test_causal_attention_gradient_ignores_later_rows(rng):
    t = 6
    qkv = {c: rng.standard_normal((2, t, 4)) for c in "qkv"}
    for j in (1, 3, t - 2):
        pick = np.zeros((2, t, 4))
        pick[:, j] = rng.standard_normal((2, 4))

        def fn(p):
            out = engine.causal_attention(p["q"], p["k"], p["v"], 2)
            return engine.mean_all(engine.mul(out, Tensor(pick)))

        grads, _ = ad_grads(fn, qkv)
        for c in "qkv":
            assert np.all(grads[c][:, j + 1:] == 0), (c, j)
            assert np.any(grads[c][:, : j + 1] != 0), (c, j)


def test_causal_mask_is_one_read_only_tile_per_length_and_dtype(monkeypatch, rng):
    monkeypatch.setattr(engine, "_causal_masks", {})
    t, heads = 7, 2
    # chunks of 16 and a last one of 4, as when scoring 100 systems; then a
    # larger chunk that regrows the tile, and the small one again. Batch
    # rows are independent, so each chunk reads as the same rows of the first.
    for dtype in (np.float64, np.float32):
        x = rng.standard_normal((20, t, 4)).astype(dtype)
        first = engine.causal_attention(*(Tensor(x[:16]),) * 3, heads=heads).data
        for b in (16, 4, 20, 4):
            out = engine.causal_attention(*(Tensor(x[:b]),) * 3, heads=heads).data
            rows = min(b, 16)
            assert np.array_equal(out[:rows], first[:rows])
    masks = engine._causal_masks
    assert sorted(masks) == [(t, "<f4"), (t, "<f8")]
    tri = np.tril(np.full((t, t), engine.CAUSAL_MASK_FILL), k=-1)
    for m in masks.values():
        assert not m.flags.writeable
        assert m.shape == (t, 20 * heads * t)
        assert np.array_equal(m, np.tile(tri, (1, 20 * heads)).astype(m.dtype))
    view = engine._causal_mask(t, 4 * heads, np.float32)
    assert view.shape == (t, 4 * heads * t) and not view.flags.writeable


def test_causal_attention_rejects_bad_shapes():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(engine.ShapeError):
        engine.causal_attention(x, x, x, heads=3)
    with pytest.raises(engine.ShapeError):
        engine.causal_attention(x, x, Tensor(np.zeros((2, 3, 2))), heads=2)


# ---------------------------------------------------------------------------
# graph bookkeeping
# ---------------------------------------------------------------------------

def test_graph_topological_order(rng):
    g = Graph()
    with g:
        a = engine.param("a", rng.standard_normal((3, 3)))
        b = engine.param("b", rng.standard_normal((3, 3)))
        c = engine.matmul(a, b)
        d = engine.add(c, a)
        engine.mean_all(engine.gelu(d))
    for node in g.nodes:
        for inp in node.inputs:
            if inp is not None:
                assert inp.idx < node.idx


def test_param_is_the_named_leaf_of_the_active_graph(rng):
    w = rng.standard_normal((3, 3))
    g = Graph()
    with g:
        first = engine.param("w", w)
        again = engine.param("w", w)
    assert first is again and g.params == {"w": first}
    assert first.node.op == "leaf" and len(g.nodes) == 1
    assert engine.param("w", w).node is None     # no active graph: a constant


def test_no_nested_graphs():
    with Graph():
        with pytest.raises(RuntimeError):
            Graph().__enter__()
    assert engine._active() is None


def test_ops_are_pure_and_bit_reproducible(rng):
    x = rng.standard_normal((6, 6))
    y = rng.standard_normal((6, 6))
    first = engine.matmul(Tensor(x), Tensor(y)).data
    second = engine.matmul(Tensor(x), Tensor(y)).data
    assert np.array_equal(first, second)
    sm1 = engine.rowwise_softmax(Tensor(x)).data
    sm2 = engine.rowwise_softmax(Tensor(x)).data
    assert np.array_equal(sm1, sm2)


def test_finite_checks_flag(rng):
    engine.set_finite_checks(True)
    try:
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(FloatingPointError):
            engine.scale(Tensor(np.array([1e308])), 10.0)
        out = engine.add(Tensor(np.ones(3)), Tensor(np.ones(3)))
        assert np.isfinite(out.data).all()
    finally:
        engine.set_finite_checks(False)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_always_normalized(seed):
    x = np.random.default_rng(seed).uniform(-50, 50, size=(4, 7))
    out = engine.rowwise_softmax(Tensor(x)).data
    assert np.abs(out.sum(axis=-1) - 1).max() <= 1e-12
    assert (out >= 0).all()


# ---------------------------------------------------------------------------
# memory contract: the tape holds what the grad closures read, and backward
# consumes it
# ---------------------------------------------------------------------------

TINY_MODEL = ModelConfig(layers=2, heads=2, embed_dim=8, context=16,
                         token_dim=3, output_dim=3, precision="f64")


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory (a itself unless a is a view)."""
    while a.base is not None:
        a = a.base
    return a


def taped_tiny_loss(monkeypatch, rng):
    """A tiny model's loss recorded on a graph, with a weak reference to
    the memory of every non-leaf op's output, by node index."""
    weights = model.init_weights(TINY_MODEL, rng)
    ys = rng.standard_normal((3, 9, 3))
    outputs = {}
    record = Graph._record

    def recording(self, op, out_data, inputs, grad_fn):
        out = record(self, op, out_data, inputs, grad_fn)
        if op != "leaf":
            outputs[out.node.idx] = weakref.ref(owner(out_data))
        return out

    monkeypatch.setattr(Graph, "_record", recording)
    g = Graph()
    with g:
        loss = training.batch_loss(weights, ys)
    monkeypatch.undo()
    return g, loss, outputs


def test_tape_does_not_pin_residual_sums_or_mlp_preactivations(monkeypatch, rng):
    g, loss, outputs = taped_tiny_loss(monkeypatch, rng)
    residuals = [n.idx for n in g.nodes if n.op == "add"]
    preacts = [n.inputs[0].idx for n in g.nodes if n.op == "gelu"]
    assert len(residuals) == 1 + 2 * TINY_MODEL.layers
    assert len(preacts) == TINY_MODEL.layers
    for idx in residuals + preacts:
        assert outputs[idx]() is None, g.nodes[idx].op
    # the gelu outputs are read by the next linear's weight gradient
    assert all(outputs[n.idx]() is not None for n in g.nodes if n.op == "gelu")


def closure_tensors(obj, seen) -> list:
    """The Tensors reachable from `obj` through closure cells, following
    nested functions (such as attention's split and merge) and containers."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, (tuple, list)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif callable(obj) and getattr(obj, "__closure__", None):
        items = [cell.cell_contents for cell in obj.__closure__]
    else:
        return []
    return [t for item in items for t in closure_tensors(item, seen)]


def assert_closures_hold_no_tensor(graph):
    for node in graph.nodes:
        held = closure_tensors(node.grad_fn, set())
        assert held == [], f"{node.op} grad closure holds {held}"


@pytest.mark.parametrize("op_name", OPS)
def test_grad_closures_hold_no_tensor(op_name, rng):
    fn, arrays = op_builders(rng)[op_name]
    g = Graph()
    with g:
        fn({k: engine.param(k, v) for k, v in arrays.items()})
    assert op_name.removesuffix("_linear") in {n.op for n in g.nodes}
    assert_closures_hold_no_tensor(g)


def test_desk_forward_grad_closures_hold_no_tensor():
    cfg = presets.desk_model_config("linear-dense")
    weights = model.init_weights(cfg, np.random.default_rng(0))
    ys = np.random.default_rng(1).standard_normal((2, 9, cfg.output_dim))
    g = Graph()
    with g:
        training.batch_loss(weights, ys)
    assert {"linear", "causal_attention", "layer_norm", "gelu", "add",
            "pos_slice"} <= {n.op for n in g.nodes}
    assert_closures_hold_no_tensor(g)


def test_backward_frees_every_non_leaf_activation_and_gradient(monkeypatch, rng):
    g, loss, outputs = taped_tiny_loss(monkeypatch, rng)
    leaf_arrays = {id(owner(t.data)) for t in g.params.values()}
    passed_on = []    # gradients handed to non-leaf nodes

    def watch(grad_fn, inputs):
        def grad(up):
            gins = grad_fn(up)
            passed_on.extend(weakref.ref(owner(gin)) for inp, gin in zip(inputs, gins)
                             if inp is not None and inp.op != "leaf")
            return gins
        return grad

    for node in g.nodes:
        if node.grad_fn is not None:
            node.grad_fn = watch(node.grad_fn, node.inputs)
    grads = engine.backward(g, loss)
    del loss
    assert all(node.grad_fn is None for node in g.nodes)
    alive = [idx for idx, ref in outputs.items()
             if ref() is not None and id(ref()) not in leaf_arrays]
    assert alive == [], [g.nodes[i].op for i in alive]
    assert len(passed_on) > 0 and all(ref() is None for ref in passed_on)
    assert {k: a.shape for k, a in grads.items()} \
        == {k: t.shape for k, t in g.params.items()}


def test_backward_consumes_the_graph(rng):
    g = Graph()
    with g:
        x = engine.param("x", rng.standard_normal(4))
        loss = engine.mean_all(engine.mul(x, x))
    grads = engine.backward(g, loss)
    assert np.array_equal(grads["x"], 2 * x.data / 4)
    with pytest.raises(RuntimeError, match="consumed"):
        engine.backward(g, loss)


def traced_bytes(fn):
    """(bytes still allocated after fn(), peak bytes during it) above the
    allocations before it, with fn's result dropped."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - base, peak - base


def test_gelu_allocates_only_what_it_returns_or_keeps(rng):
    x = rng.standard_normal((64, 256))
    slack = 4096
    _, peak = traced_bytes(lambda: engine.gelu(Tensor(x)))
    assert peak <= x.nbytes + slack                  # the output alone

    def taped():
        g = Graph()
        with g:
            keep.append((g, engine.gelu(engine.param("x", x))))

    keep = []
    retained, peak = traced_bytes(taped)
    assert retained <= 2 * x.nbytes + slack          # output and derivative
    assert peak <= 3 * x.nbytes + slack              # and one scratch


def test_chunk_backward_peak_stays_near_the_forward_tape():
    """One desk-model chunk: the forward's tape is the high-water mark of
    a taped step; backward frees as it goes and adds at most 10%."""
    cfg = presets.desk_model_config("linear-dense")
    weights = model.init_weights(cfg, np.random.default_rng(0))
    tokens = np.random.default_rng(1).standard_normal((training.TRAIN_CHUNK, 50,
                                                       cfg.token_dim))
    training._loss_and_grads(weights, tokens)   # warm caches

    def forward():
        g = Graph()
        with g:
            kept.append((g, training.batch_loss(weights, tokens)))

    kept = []
    tape_bytes, _ = traced_bytes(forward)
    kept.clear()
    _, step_peak = traced_bytes(lambda: training._loss_and_grads(weights, tokens))
    assert step_peak <= 1.10 * tape_bytes, (step_peak, tape_bytes)


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_spectral_radius_identity():
    assert linalg.spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_nilpotent():
    assert linalg.spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def test_spectral_radius_pm_two():
    a = np.array([[0.0, 4.0], [1.0, 0.0]])   # eigenvalues +-2
    assert linalg.spectral_radius(a) == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_spectral_radius_homogeneity(c, rng):
    a = rng.uniform(-1, 1, size=(10, 10))
    base = linalg.spectral_radius(a)
    scaled = linalg.spectral_radius(c * a)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-3)


def test_spectral_radius_vs_eig_oracle(rng):
    for _ in range(5):
        a = rng.uniform(-1, 1, size=(10, 10))
        true = np.abs(np.linalg.eigvals(a)).max()
        assert linalg.spectral_radius(a) == pytest.approx(true, rel=1e-3)


def reference_spectral_radius(a):
    """`linalg.spectral_radius` in plain numpy, stepping with `@` and
    `np.linalg.norm`: 16 squarings, 100 power iterations per norm."""
    def spectral_norm(a):
        k = a.shape[1]
        v = np.full(k, 1.0 / math.sqrt(k))
        ata = a.T @ a
        for _ in range(100):
            w = ata @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            v = w / nw
        return float(math.sqrt(v @ (ata @ v)))

    cur, log_scale = a, 0.0
    for _ in range(16):
        n = spectral_norm(cur)
        if n == 0.0:
            return 0.0
        cur = cur / n
        log_scale = 2.0 * (log_scale + math.log(n))
        cur = cur @ cur
    n = spectral_norm(cur)
    if n == 0.0:
        return 0.0
    return float(math.exp((log_scale + math.log(n)) / 2.0 ** 16))


@pytest.mark.parametrize("mode", ["dense", "upper_triangular"])
def test_spectral_radius_equals_its_reference_bit_for_bit(mode):
    rng = stream(7, "spectral-radius", mode)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        if mode == "upper_triangular":
            a = np.triu(a, k=int(rng.integers(0, 2)))   # some nilpotent
        assert linalg.spectral_radius(a) == reference_spectral_radius(a)


def test_matrix_power_norms_jordan_block():
    a = np.array([[0.9, 1.0], [0.0, 0.9]])
    norms = linalg.matrix_power_norms(a, 5)
    # closed-form powers: [[0.9^t, t 0.9^(t-1)], [0, 0.9^t]]
    for t in range(1, 6):
        power = np.array([[0.9**t, t * 0.9 ** (t - 1)], [0.0, 0.9**t]])
        assert norms[t] == pytest.approx(np.linalg.norm(power, 2), rel=1e-6)
    assert norms[5] > 1.0   # transient overshoot despite rho < 1
