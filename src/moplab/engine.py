"""Dense tensor arithmetic with a reverse-mode tape.

A Tensor wraps an immutable numpy array. While a Graph is active (used as a
context manager), every op appends a node to the tape; `backward` walks the
tape in reverse and accumulates exact gradients in a fixed order, so seeded
runs are bit-reproducible. With no active graph the same ops run eagerly
with zero taping overhead, which is the inference path.

Two ops are fused for the transformer, each with a hand-written backward:
`linear` is one GEMM over the flattened leading dims with the bias added in
place, and `causal_attention` splits heads, scales, masks and softmaxes the
scores in place, mixes the values and merges the heads, keeping only the
attention probabilities for the backward. The projections and attention
of a transformer layer then record six `linear` nodes and one
`causal_attention` node, not a chain of reshapes, transposes and
score-sized temporaries.

Row reductions run over long rows. numpy reduces along a short last axis
in one short inner loop per row, so the ops keep their reductions off it:
attention holds its scores keys-major, a (T, B * heads * T) array reduced
over its leading axis (`rowwise_softmax` takes the same layout, so the two
round alike), and `layer_norm` takes its row means as GEMVs over the
flattened (rows, d) view.

Memory contract of the tape. Each op hands its grad closure to the tape
as it runs; unrecorded, the closure is simply dropped. A node records its
input nodes, and a closure refers only to arrays and shapes, never to a
Tensor, so the tape holds only the arrays the backward reads: a residual
sum or an MLP pre-activation that no backward reads is freed as soon as
the forward drops its Tensor. `backward` consumes the tape: once a
node's closure has run, the closure and the node's gradient are dropped,
so activations and gradients are freed as the walk goes. It returns the
gradients by parameter name, and a consumed graph cannot be walked again.

Precision is a property of the arrays: float64 in filters and tests,
float32 for training throughput.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "Tensor", "Graph", "ShapeError", "NonScalarLossError",
    "add", "sub", "mul", "scale", "matmul", "linear", "transpose", "reshape",
    "rowwise_softmax", "causal_attention", "layer_norm", "gelu", "sum_lastdim",
    "mean_all", "l2norm_lastdim", "backward", "param", "set_finite_checks",
]

LAYER_NORM_EPS = 1e-5
L2NORM_GRAD_EPS = 1e-12  # guard inside the sqrt of the norm gradient

_state = threading.local()
_finite_checks = False


class ShapeError(ValueError):
    pass


class NonScalarLossError(ValueError):
    pass


def set_finite_checks(enabled: bool) -> None:
    """Verify every op output is finite (test/filter discipline; off in the
    training hot loop where the NaN-loss guard owns divergence handling)."""
    global _finite_checks
    _finite_checks = bool(enabled)


def _active() -> "Graph | None":
    return getattr(_state, "graph", None)


class Tensor:
    """Immutable dense array, optionally attached to a recording graph."""

    __slots__ = ("data", "node")

    def __init__(self, data, node=None):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = "leaf" if (self.node is not None and self.node.op == "leaf") else \
            (self.node.op if self.node is not None else "const")
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, {tag})"


class _Node:
    """One tape record: the op, its input nodes (None for a constant) and
    the closure that maps the output gradient to the input gradients."""

    __slots__ = ("idx", "op", "inputs", "grad_fn", "out_shape")

    def __init__(self, idx, op, inputs, grad_fn, out_shape):
        self.idx = idx
        self.op = op
        self.inputs = inputs
        self.grad_fn = grad_fn
        self.out_shape = out_shape


class Graph:
    """Tape of operation records in execution (= topological) order."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.params: dict[str, Tensor] = {}  # named leaves (see `param`)
        self.consumed = False                # set by `backward`

    def __enter__(self):
        if _active() is not None:
            raise RuntimeError("a Graph is already active on this thread")
        _state.graph = self
        return self

    def __exit__(self, *exc):
        _state.graph = None
        return False

    def _record(self, op, out_data, inputs, grad_fn) -> Tensor:
        if _finite_checks and not np.all(np.isfinite(out_data)):
            raise FloatingPointError(f"non-finite values produced by op '{op}'")
        node = _Node(len(self.nodes), op, tuple(t.node for t in inputs), grad_fn,
                     out_data.shape)
        self.nodes.append(node)
        return Tensor(out_data, node)


def param(name: str, data) -> Tensor:
    """Parameter `name` of the active graph: its leaf, recorded on first
    use and reused after. With no active graph, a plain constant."""
    g = _active()
    if g is None:
        return Tensor(data)
    if name not in g.params:
        g.params[name] = g._record("leaf", np.asarray(data), (), None)
    return g.params[name]


def backward(graph: Graph, loss: Tensor) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of a scalar loss over the whole tape.

    Consumes the graph: each node's grad closure, and with it the
    activations it reads, is dropped once it has run, and each non-leaf
    gradient once it has been passed on, so the walk frees memory as it
    goes. Returns {name: gradient} for every parameter of the graph, in the
    order `param` registered them, with zeros of the parameter's shape and
    dtype where the loss never reached it; a second call raises
    RuntimeError.
    """
    if graph.consumed:
        raise RuntimeError("graph was consumed by an earlier backward; record it again")
    if (
        loss.node is None
        or loss.node.idx >= len(graph.nodes)
        or graph.nodes[loss.node.idx] is not loss.node
    ):
        raise ValueError("loss tensor is not attached to this graph")
    if loss.data.shape != ():
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.data.shape}")
    graph.consumed = True
    slots: list[np.ndarray | None] = [None] * len(graph.nodes)
    slots[loss.node.idx] = np.ones((), dtype=loss.data.dtype)
    for node in reversed(graph.nodes):
        grad_fn, node.grad_fn = node.grad_fn, None
        if grad_fn is None or slots[node.idx] is None:
            continue
        g, slots[node.idx] = slots[node.idx], None
        gins = grad_fn(g)
        del grad_fn, g
        for inp, gin in zip(node.inputs, gins):
            if gin is None or inp is None:
                continue
            # never mutate in place: grad arrays may alias forward data or
            # be shared between several inputs of one node
            slots[inp.idx] = gin if slots[inp.idx] is None else slots[inp.idx] + gin
        del gins, gin
    return {name: np.zeros(p.data.shape, p.data.dtype) if slots[p.node.idx] is None
            else slots[p.node.idx] for name, p in graph.params.items()}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(op, out, inputs, grad_fn) -> Tensor:
    g = _active()
    if g is None:
        if _finite_checks and not np.all(np.isfinite(out)):
            raise FloatingPointError(f"non-finite values produced by op '{op}'")
        return Tensor(out)
    return g._record(op, out, inputs, grad_fn)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    return _emit("add", out, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    return _emit("sub", out, (a, b),
                 lambda g: (_unbroadcast(g, sa), -_unbroadcast(g, sb)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    da, db = a.data, b.data
    return _emit("mul", da * db, (a, b),
                 lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _emit("scale", a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading dims (numpy broadcasting rules)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul expects operands with ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"inner dims differ: {a.data.shape} @ {b.data.shape}")
    da, db = a.data, b.data
    return _emit("matmul", da @ db, (a, b),
                 lambda g: (_unbroadcast(g @ db.swapaxes(-1, -2), da.shape),
                            _unbroadcast(da.swapaxes(-1, -2) @ g, db.shape)))


def linear(x, w, b) -> Tensor:
    """Affine map over the last dim, x (..., k) @ w (k, n) + b (n,): one GEMM
    over the flattened leading dims of x, the bias added in place. The
    backward takes the bias gradient as a GEMV with a vector of ones, and
    no input gradient for a constant x (the model's tokens)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear expects w (k, n) and b (n,), got {w.data.shape}, "
                         f"{b.data.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"inner dims differ: {x.data.shape} @ {w.data.shape}")
    shape = x.data.shape
    x2 = x.data.reshape(-1, shape[-1])
    out = x2 @ w.data
    out += b.data
    out = out.reshape(shape[:-1] + w.data.shape[1:])
    wt = None if x.node is None else w.data.T

    def grad(g):
        g = g.reshape(x2.shape[0], -1)
        dx = None if wt is None else (g @ wt).reshape(shape)
        return dx, x2.T @ g, np.ones(len(g), dtype=g.dtype) @ g

    return _emit("linear", out, (x, w, b), grad)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    return _emit("transpose", a.data.transpose(axes), (a,),
                 lambda g: (g.transpose(np.argsort(axes)),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    orig = a.data.shape
    return _emit("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def _softmax_keys(p) -> np.ndarray:
    """Softmax down the columns of a 2-D (keys, rows) array, in place:
    max-subtracted for stability, each reduction one pass over long rows."""
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    return p


def _softmax_keys_grad(g, p) -> np.ndarray:
    """Gradient through `_softmax_keys` with output p, for the incoming
    gradient g of the same (keys, rows) layout; written over g."""
    g -= np.einsum("kr,kr->r", g, p)
    g *= p
    return g


def _keys_major(x) -> np.ndarray:
    """A fresh (n, rows) copy of x (..., n): its last axis first."""
    return np.array(np.moveaxis(x, -1, 0), order="C").reshape(x.shape[-1], -1)


def _rows_major(p, shape) -> np.ndarray:
    """The (..., n) view of a `_keys_major` array of the given shape."""
    return np.moveaxis(p.reshape((shape[-1],) + shape[:-1]), 0, -1)


def rowwise_softmax(a) -> Tensor:
    """Softmax over the last dim, max-subtracted for stability; taken
    keys-major like the softmax inside `causal_attention`, so the two
    round alike."""
    a = _as_tensor(a)
    if a.data.ndim < 1 or a.data.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last dim")
    shape = a.data.shape
    p = _softmax_keys(_keys_major(a.data))
    return _emit("rowwise_softmax", _rows_major(p, shape), (a,),
                 lambda g: (_rows_major(_softmax_keys_grad(_keys_major(g), p), shape),))


CAUSAL_MASK_FILL = -1e30  # added to scores above the diagonal; exp() -> 0
_causal_masks: dict[tuple, np.ndarray] = {}


def _causal_mask(t, rows, dtype) -> np.ndarray:
    """(t, rows * t) additive mask over keys-major scores: 0 where the key
    is at or before the query, CAUSAL_MASK_FILL after it, tiled `rows`
    times. One read-only tile per (t, dtype), regrown when a call needs
    more rows than it holds, and sliced to `rows`."""
    key = (t, np.dtype(dtype).str)
    m = _causal_masks.get(key)
    if m is None or m.shape[1] < rows * t:
        tri = np.tril(np.full((t, t), CAUSAL_MASK_FILL, dtype=dtype), k=-1)
        m = np.tile(tri, (1, rows))
        m.flags.writeable = False
        _causal_masks[key] = m
    return m[:, :rows * t]


def causal_attention(q, k, v, heads: int) -> Tensor:
    """Multi-head causal self-attention over (B, T, d) projections.

    Splits d into `heads` heads of d / heads, scores q.k^T / sqrt(d / heads)
    with the positions after each query masked out, softmaxes each row and
    mixes v, then merges the heads back into (B, T, d).

    The scores are held keys-major: one (T, B * heads * T) array whose
    column is one query of one head, which the k.q^T GEMM writes into
    directly. numpy reduces over a leading axis as one pass over rows of
    B * heads * T, against many short passes of T along the last axis, so
    the softmax's max and sum, and the backward's softmax-gradient sum,
    each take one pass over the scores. They are scaled, masked and
    softmaxed in place, only the probabilities are kept for the backward,
    and the value mix writes the merged heads directly.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 3 or not q.data.shape == k.data.shape == v.data.shape:
        raise ShapeError(f"attention expects equal (B, T, d) q, k, v, got "
                         f"{q.data.shape}, {k.data.shape}, {v.data.shape}")
    b, t, d = q.data.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"{d} channels do not split into {heads} heads")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    dt = np.result_type(q.data, k.data, v.data)

    def split(x):   # (B, T, d) -> (B, heads, T, dh) view
        return x.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)

    def by_block(x):   # (T, B * heads * T) -> (B, heads, T keys, T queries) view
        return x.reshape(t, b, heads, t).transpose(1, 2, 0, 3)

    def merged(blocks):   # a (B, heads, T, dh) product, written as (B, T, d)
        out = np.empty((b, t, d), dtype=dt)
        np.matmul(*blocks, out=split(out))
        return out

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    p = np.empty((t, b * heads * t), dtype=dt)
    np.matmul(k4, q4.swapaxes(-1, -2), out=by_block(p))
    p *= c
    p += _causal_mask(t, b * heads, dt)
    _softmax_keys(p)
    pb = by_block(p)
    out = merged((pb.swapaxes(-1, -2), v4))

    def grad(g):
        g4 = split(g)
        ds = np.empty_like(p)
        dsb = by_block(ds)
        np.matmul(v4, g4.swapaxes(-1, -2), out=dsb)
        _softmax_keys_grad(ds, p)
        dv = merged((pb, g4))
        ds *= c
        return merged((dsb.swapaxes(-1, -2), k4)), merged((dsb, q4)), dv

    return _emit("causal_attention", out, (q, k, v), grad)


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize over the last dim to zero mean / unit variance, then affine.

    The row means, of x and of the squared deviations in the forward and
    of the two products in the backward, are GEMVs with a (d,) vector of
    1/d over the flattened (rows, d) view: one BLAS pass each, against
    numpy's many short passes along a last axis of d.
    """
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    shape = a.data.shape
    x = a.data.reshape(-1, shape[-1])
    w = np.full(shape[-1], 1.0 / shape[-1], dtype=x.dtype)
    xhat = x - (x @ w)[:, None]
    var = (xhat * xhat) @ w
    var += LAYER_NORM_EPS
    inv = (1.0 / np.sqrt(var))[:, None]
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    gdat, sbias = gain.data, bias.data.shape

    def grad(g):
        g = g.reshape(xhat.shape)
        dgain = _unbroadcast(g * xhat, gdat.shape)
        dbias = _unbroadcast(g, sbias)
        dxhat = g * gdat
        da = dxhat - (dxhat @ w)[:, None]
        da -= xhat * ((dxhat * xhat) @ w)[:, None]
        da *= inv
        return da.reshape(shape), dgain, dbias

    return _emit("layer_norm", out.reshape(shape), (a, gain, bias), grad)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """GELU, tanh approximation (GPT-2 convention).

    Eagerly one full-size array is allocated: x*x, then tanh(u), then the
    output, all in one buffer. Recorded, x*x becomes the derivative and
    tanh(u) the output, with one scratch for 1 - tanh(u)^2.
    """
    a = _as_tensor(a)
    x = a.data
    taped = _active() is not None
    x2 = np.multiply(x, x, out=np.empty_like(x))
    t = np.multiply(x2, x, out=np.empty_like(x) if taped else x2)
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)   # t = tanh(u), u = c (x + 0.044715 x^3)
    if taped:
        # d/dx [0.5 x (1 + tanh u)], taken while recording so the tape
        # keeps d alone, not x*x and tanh(u)
        d = x2
        d *= 3 * 0.044715
        d += 1.0
        d *= _GELU_C
        tt = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, tt, out=tt)
        d *= tt
        d *= x
        d += t
        d += 1.0
        d *= 0.5
    out = t
    out += 1.0
    out *= x
    out *= 0.5
    return _emit("gelu", out, (a,), lambda g: (d * g,))


def sum_lastdim(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.shape[-1]
    return _emit("sum_lastdim", a.data.sum(axis=-1), (a,),
                 lambda g: (np.repeat(g[..., None], n, axis=-1),))


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    shape, size, dt = a.data.shape, a.data.size, a.data.dtype
    return _emit("mean_all", np.asarray(a.data.mean()), (a,),
                 lambda g: (np.full(shape, g / size, dtype=dt),))


def l2norm_lastdim(a) -> Tensor:
    """Euclidean norm over the last dim.

    The forward value is the exact norm; the gradient denominator carries an
    eps guard so the subgradient at a zero residual is 0, never NaN.
    """
    a = _as_tensor(a)
    sq = (a.data * a.data).sum(axis=-1)
    x = a.data
    return _emit("l2norm_lastdim", np.sqrt(sq), (a,),
                 lambda g: (x * (g / np.sqrt(sq + L2NORM_GRAD_EPS))[..., None],))
