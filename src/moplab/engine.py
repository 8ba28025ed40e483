"""Dense tensor arithmetic with a reverse-mode tape.

A Tensor wraps an immutable numpy array. While a Graph is active (used as a
context manager), every op appends a node to the tape; `backward` walks the
tape in reverse and accumulates exact gradients in a fixed order, so seeded
runs are bit-reproducible. With no active graph the same ops run eagerly
with zero taping overhead, which is the inference path.

Precision is a property of the arrays: float64 in filters and tests,
float32 for training throughput.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "Tensor", "Graph", "Gradients", "ShapeError", "NonScalarLossError",
    "add", "sub", "mul", "scale", "matmul", "transpose", "reshape",
    "rowwise_softmax", "layer_norm", "gelu", "sum_lastdim", "mean_all",
    "l2norm_lastdim", "backward", "param", "set_finite_checks",
    "finite_checks_enabled",
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


def finite_checks_enabled() -> bool:
    return _finite_checks


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

    def __enter__(self):
        if _active() is not None:
            raise RuntimeError("a Graph is already active on this thread")
        _state.graph = self
        return self

    def __exit__(self, *exc):
        _state.graph = None
        return False

    def leaf(self, data) -> Tensor:
        """Register a differentiable leaf."""
        return self._record("leaf", np.asarray(data), (), None)

    def _record(self, op, out_data, inputs, grad_fn) -> Tensor:
        if _finite_checks and not np.all(np.isfinite(out_data)):
            raise FloatingPointError(f"non-finite values produced by op '{op}'")
        node = _Node(len(self.nodes), op, inputs, grad_fn, out_data.shape)
        self.nodes.append(node)
        return Tensor(out_data, node)


def param(name: str, data) -> Tensor:
    """Parameter `name` of the active graph: its named leaf, registered on
    first use and reused after. With no active graph, a plain constant."""
    g = _active()
    if g is None:
        return Tensor(data)
    if name not in g.params:
        g.params[name] = g.leaf(data)
    return g.params[name]


class Gradients:
    """Gradient arrays per node; zero for leaves the loss never reached."""

    def __init__(self, slots, graph):
        self._slots = slots
        self._graph = graph

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.node is None or t.node.idx >= len(self._slots):
            raise KeyError("tensor is not part of this graph")
        g = self._slots[t.node.idx]
        if g is None:
            return np.zeros(t.data.shape, dtype=t.data.dtype)
        return g


def backward(graph: Graph, loss: Tensor) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss over the whole tape."""
    if (
        loss.node is None
        or loss.node.idx >= len(graph.nodes)
        or graph.nodes[loss.node.idx] is not loss.node
    ):
        raise ValueError("loss tensor is not attached to this graph")
    if loss.data.shape != ():
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.data.shape}")
    slots: list[np.ndarray | None] = [None] * len(graph.nodes)
    slots[loss.node.idx] = np.ones((), dtype=loss.data.dtype)
    for node in reversed(graph.nodes[: loss.node.idx + 1]):
        g = slots[node.idx]
        if g is None or node.grad_fn is None:
            continue
        for inp, gin in zip(node.inputs, node.grad_fn(g)):
            if gin is None or inp.node is None:
                continue
            j = inp.node.idx
            # never mutate in place: grad arrays may alias forward data or
            # be shared between several inputs of one node
            slots[j] = gin if slots[j] is None else slots[j] + gin
    return Gradients(slots, graph)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(op, out, inputs, make_grad_fn) -> Tensor:
    g = _active()
    if g is None:
        if _finite_checks and not np.all(np.isfinite(out)):
            raise FloatingPointError(f"non-finite values produced by op '{op}'")
        return Tensor(out)
    return g._record(op, out, inputs, make_grad_fn())


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

    def mk():
        sa, sb = a.data.shape, b.data.shape
        return lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return _emit("add", out, (a, b), mk)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def mk():
        sa, sb = a.data.shape, b.data.shape
        return lambda g: (_unbroadcast(g, sa), -_unbroadcast(g, sb))

    return _emit("sub", out, (a, b), mk)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def mk():
        da, db = a.data, b.data
        return lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape))

    return _emit("mul", out, (a, b), mk)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = a.data * c

    def mk():
        return lambda g: (g * c,)

    return _emit("scale", out, (a,), mk)


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading dims (numpy broadcasting rules);
    a (..., k) @ (k, n) product, a linear layer, is one GEMM over the
    flattened leading dims, in the forward and in both gradients."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul expects operands with ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"inner dims differ: {a.data.shape} @ {b.data.shape}")
    da, db = a.data, b.data
    flat = db.ndim == 2 and da.ndim > 2
    if flat:
        da = da.reshape(-1, da.shape[-1])
    out = da @ db
    if flat:
        out = out.reshape(a.data.shape[:-1] + db.shape[-1:])

    def mk():
        def grad(g):
            if flat:
                g = g.reshape(da.shape[0], -1)
            ga = _unbroadcast(g @ db.swapaxes(-1, -2), da.shape)
            gb = _unbroadcast(da.swapaxes(-1, -2) @ g, db.shape)
            return ga.reshape(a.data.shape), gb

        return grad

    return _emit("matmul", out, (a, b), mk)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes)

    def mk():
        inv = tuple(np.argsort(axes))
        return lambda g: (g.transpose(inv),)

    return _emit("transpose", out, (a,), mk)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def mk():
        orig = a.data.shape
        return lambda g: (g.reshape(orig),)

    return _emit("reshape", out, (a,), mk)


def rowwise_softmax(a) -> Tensor:
    """Softmax over the last dim, max-subtracted for stability."""
    a = _as_tensor(a)
    if a.data.ndim < 1 or a.data.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last dim")
    m = a.data.max(axis=-1, keepdims=True)
    out = a.data - m
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def mk():
        y = out

        def grad(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            r = g - dot
            r *= y
            return (r,)

        return grad

    return _emit("rowwise_softmax", out, (a,), mk)


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize over the last dim to zero mean / unit variance, then affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def mk():
        gdat = gain.data

        def grad(g):
            dgain = _unbroadcast(g * xhat, gain.data.shape)
            dbias = _unbroadcast(g, bias.data.shape)
            dxhat = g * gdat
            da = dxhat - dxhat.mean(axis=-1, keepdims=True)
            da -= xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
            da *= inv
            return da, dgain, dbias

        return grad

    return _emit("layer_norm", out, (a, gain, bias), mk)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """GELU, tanh approximation (GPT-2 convention)."""
    a = _as_tensor(a)
    x = a.data
    x2 = x * x
    t = np.empty_like(x)
    np.multiply(x2, x, out=t)
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 1.0 + t
    out *= x
    out *= 0.5

    def mk():
        def grad(g):
            # d/dx [0.5 x (1 + tanh u)] with u = c (x + 0.044715 x^3)
            d = x2 * (3 * 0.044715)
            d += 1.0
            d *= _GELU_C
            tt = t * t
            np.subtract(1.0, tt, out=tt)
            d *= tt
            d *= x
            d += t
            d += 1.0
            d *= 0.5
            d *= g
            return (d,)

        return grad

    return _emit("gelu", out, (a,), mk)


def sum_lastdim(a) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=-1)

    def mk():
        n = a.data.shape[-1]
        return lambda g: (np.repeat(g[..., None], n, axis=-1),)

    return _emit("sum_lastdim", out, (a,), mk)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.mean())

    def mk():
        size = a.data.size
        shape = a.data.shape
        dt = a.data.dtype
        return lambda g: (np.full(shape, g / size, dtype=dt),)

    return _emit("mean_all", out, (a,), mk)


def l2norm_lastdim(a) -> Tensor:
    """Euclidean norm over the last dim.

    The forward value is the exact norm; the gradient denominator carries an
    eps guard so the subgradient at a zero residual is 0, never NaN.
    """
    a = _as_tensor(a)
    sq = (a.data * a.data).sum(axis=-1)
    out = np.sqrt(sq)

    def mk():
        denom = np.sqrt(sq + L2NORM_GRAD_EPS)

        def grad(g):
            return (a.data * (g / denom)[..., None],)

        return grad

    return _emit("l2norm_lastdim", out, (a,), mk)
