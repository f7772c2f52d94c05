"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: operations executed inside a ``with Tape():`` block are
recorded in execution order and differentiated by ``tape.backward(loss)``.
Outside a tape the same operations are plain numpy forward computations,
which is what evaluation-only paths use.

Everything is float64. Elementwise ops take equal shapes or a scalar
with a tensor; the other broadcasts are the row-broadcast bias of
:func:`add_bias` and :func:`linear`, and the leading axes of
:func:`linear`: the input's (G inputs) and the weight's (H stacked
layers) form one grid of (input, weight) cells, computed as one node.
Backwards only compute the gradients of operands that require one, so a
subgraph built from frozen tensors is neither recorded nor differentiated.

Every op, and every loss node of ``crma.losses``, builds its output through
:func:`node`, the one path that records a tape entry; :func:`accum` adds a
backward's gradient into an operand.
"""

from __future__ import annotations

import math

import numpy as np

# Floor applied to log() inputs; softmax outputs can underflow to exact 0.
LOG_FLOOR = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """Operand values lie outside an op's numeric domain, or a training loss out of its bounds."""


class GraphError(RuntimeError):
    """Backward was requested on a tensor the tape cannot differentiate."""


_tapes: list = []  # open tapes, innermost last


class Tensor:
    """Dense float64 array paired with a lazily allocated gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False, *, copy: bool = True):
        self.values = (
            np.array(values, dtype=np.float64) if copy else np.asarray(values, dtype=np.float64)
        )
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.item())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, c: float):
        return scalar_mul(self, c)

    # unary ops -----------------------------------------------------------

    def abs(self) -> "Tensor":
        a = self
        return node(np.abs(a.values), (a,), lambda g: accum(a, g * np.sign(a.values)))

    def relu(self) -> "Tensor":
        a = self
        return node(np.maximum(a.values, 0.0), (a,), lambda g: accum(a, g * (a.values > 0.0)))

    def log(self) -> "Tensor":
        """Natural log of ``max(x, LOG_FLOOR)``; zero gradient below the floor."""
        a = self
        clipped, values = floored_log(a.values)
        return node(values, (a,), lambda g: accum(a, floored_log_grad(a.values, clipped, g)))

    def exp(self) -> "Tensor":
        a = self
        values = np.exp(a.values)
        return node(values, (a,), lambda g: accum(a, g * values))

    def sum(self) -> "Tensor":
        a = self
        return node(np.sum(a.values), (a,), lambda g: accum(a, g * np.ones_like(a.values)))

    def mean(self) -> "Tensor":
        a = self
        inv = 1.0 / a.values.size
        return node(np.mean(a.values), (a,), lambda g: accum(a, (g * inv) * np.ones_like(a.values)))


class Tape:
    """Execution-ordered record of differentiable operations.

    Rebuilt on every forward pass; execution order is a topological order
    by construction. Tapes nest: ops record on the innermost open tape, and
    distinct tapes are fully independent.
    """

    def __init__(self):
        self._entries = []  # (out, backward_fn)

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tapes.pop()
        assert popped is self, "tapes must be exited in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, out: Tensor, backward_fn) -> None:
        self._entries.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

        ``loss`` must be a scalar and the tape's last entry, as every training
        phase's objective is. Leaf gradients accumulate across calls (zero them
        between passes if that is not wanted); an intermediate node's gradient
        lives only until it has been passed on to its operands, so repeated
        calls are deterministic.
        """
        if loss.values.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._entries or self._entries[-1][0] is not loss:
            raise GraphError("loss tensor is not the last entry recorded on this tape")
        for out, _ in self._entries:
            out.grad = None
        loss.grad = np.ones_like(loss.values)
        for out, backward_fn in reversed(self._entries):
            if out.grad is None:  # not on a path to the loss
                continue
            backward_fn(out.grad)
            out.grad = None  # passed on: free it before the next node runs


# recording helpers --------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(values, parents, backward_fn) -> Tensor:
    """An op's freshly computed array as its output tensor, without a copy.

    The output requires a gradient when some parent does; then, inside a
    tape, ``backward_fn(g)`` is recorded to pass the output's gradient ``g``
    on to the parents. Every op and loss node is built here.
    """
    out = Tensor(values, requires_grad=any(p.requires_grad for p in parents), copy=False)
    if _tapes and out.requires_grad:
        _tapes[-1]._record(out, backward_fn)
    return out


def accum(t: Tensor, g, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``; ``owned`` marks a fresh array nothing else holds."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy unless owned: g may alias another node's grad buffer
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def floored_log(values):
    """``max(values, LOG_FLOOR)`` and its natural log; negative values are an error."""
    if np.any(values < 0.0):
        raise NumericError("log of negative value")
    clipped = np.maximum(values, LOG_FLOOR)
    return clipped, np.log(clipped)


def floored_log_grad(values, clipped, g):
    """The floored log's backward: ``g / clipped``, zero below the floor."""
    return np.where(values >= LOG_FLOOR, g / clipped, 0.0)


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


def _reduce_last(ufunc, values):
    """``ufunc.reduce`` over the last axis, kept as a length-1 axis.

    numpy's own reduction pays a fixed cost per row, which dominates on the
    short class axis; below 8 columns this reduces column by column
    instead, in the same sequential order, so the result is bit-identical.
    """
    if values.shape[-1] >= 8:  # numpy sums longer rows pairwise
        return ufunc.reduce(values, axis=-1, keepdims=True)
    out = values[..., :1].copy()
    for j in range(1, values.shape[-1]):
        ufunc(out, values[..., j : j + 1], out=out)
    return out


def _fit(g, shape):
    """Reduce an upstream gradient onto a (possibly scalar) operand shape."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


# binary ops ----------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b, "add")

    def backward_fn(g):
        accum(a, _fit(g, a.shape))
        accum(b, _fit(g, b.shape))

    return node(a.values + b.values, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b, "sub")

    def backward_fn(g):
        accum(a, _fit(g, a.shape))
        if b.requires_grad:
            accum(b, _fit(-g, b.shape))

    return node(a.values - b.values, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b, "mul")

    def backward_fn(g):
        if a.requires_grad:
            accum(a, _fit(g * b.values, a.shape))
        if b.requires_grad:
            accum(b, _fit(g * a.values, b.shape))

    return node(a.values * b.values, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b, "div")
    if np.any(b.values == 0.0):
        raise NumericError("division by zero")

    def backward_fn(g):
        if a.requires_grad:
            accum(a, _fit(g / b.values, a.shape))
        if b.requires_grad:
            accum(b, _fit(-g * a.values / (b.values * b.values), b.shape))

    return node(a.values / b.values, (a, b), backward_fn)


def scalar_mul(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return node(a.values * c, (a,), lambda g: accum(a, g * c))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not align")

    def backward_fn(g):
        if a.requires_grad:
            accum(a, g @ b.values.T, owned=True)
        if b.requires_grad:
            accum(b, a.values.T @ g, owned=True)

    return node(a.values @ b.values, (a, b), backward_fn)


def add_bias(x, bias) -> Tensor:
    """Row-broadcast add of a length-d bias onto an n-by-d matrix."""
    x, bias = _as_tensor(x), _as_tensor(bias)
    if x.values.ndim != 2 or bias.values.ndim != 1 or x.shape[1] != bias.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.shape} and {bias.shape} do not align")

    def backward_fn(g):
        accum(x, g)
        if bias.requires_grad:
            accum(bias, g.sum(axis=0), owned=True)

    return node(x.values + bias.values[None, :], (x, bias), backward_fn)


def linear(x, weight, bias, relu: bool = False) -> Tensor:
    """``x @ weight + bias``, optionally followed by relu, as one node.

    All leading axes of x (..., n, d) are its G inputs and all leading axes
    of weight (..., d, k), with bias (..., k), its H stacked layers (G or H
    is 1 without leading axes). They form a (G, H/G) grid of cells, G
    dividing H: input g meets the H/G stacked layers from g*H/G on, in
    row-major order, or the one shared weight. The output has the weight's
    leading axes, or the input's for a shared weight, then (n, k).

    Each cell's value and weight and bias gradients are bit-identical to
    ``add_bias(matmul(x, weight), bias)`` (then ``.relu()``) on its own
    input and weight. A stack takes its cells' gradients as they are; a
    shared weight adds its G cells last group first, as G plain nodes
    recorded in group order on one tape do. An input's gradient sums the
    cells it fed in layer order.
    """
    x, w, b = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    heads = w.values.ndim > 2
    # the (G, H/G) grid of cells: G = 1 for one input, H/G = 1 for a shared weight
    groups, layers = math.prod(x.shape[:-2]), math.prod(w.shape[:-2])
    if not (
        w.values.ndim >= 2
        and b.shape == w.shape[:-2] + w.shape[-1:]
        and x.values.ndim >= 2
        and x.shape[-1] == w.shape[-2]
        and (not heads or groups and layers % groups == 0)
    ):
        raise DimensionError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} do not align")
    xs = x.values.reshape((groups, 1) + x.shape[-2:])
    ws = w.values.reshape((groups if heads else 1, -1) + w.shape[-2:])
    values = xs @ ws
    values += b.values.reshape(ws.shape[:2] + (1, -1))
    if relu:
        np.maximum(values, 0.0, out=values)
    out = values.reshape((w if heads else x).shape[:-2] + values.shape[-2:])

    def add_cells(t, cells):
        if heads:  # a stack takes its cells as they are
            accum(t, cells.reshape(t.shape), owned=True)
            return
        for cell in cells[::-1, 0]:  # one accum per cell, last group first
            accum(t, cell, owned=True)

    def backward_fn(g):
        gs = g.reshape(values.shape)  # this node's own gradient buffer, done with after this call
        if relu:
            np.multiply(gs, values > 0.0, out=gs)
        if b.requires_grad:
            # einsum adds the rows in the order sum(axis=-2) does, much faster
            add_cells(b, np.einsum("ghnk->ghk", gs))
        if w.requires_grad:
            add_cells(w, np.swapaxes(xs, -1, -2) @ gs)
        if x.requires_grad:
            # a contiguous transpose, not the strided view: OpenBLAS 0.3.31 ran
            # these products 1.3-1.8x faster on it (2-core Xeon), same bits
            wt = np.ascontiguousarray(np.swapaxes(ws, -1, -2))
            gx = gs[:, 0] @ wt[:, 0]
            for j in range(1, ws.shape[1]):  # layer order
                gx += gs[:, j] @ wt[:, j]
            accum(x, gx.reshape(x.shape), owned=True)

    return node(out, (x, w, b), backward_fn)


def index(t, key) -> Tensor:
    """``t[key]`` as a copy, for a basic numpy index: an int, a slice or a tuple of them."""
    t = _as_tensor(t)
    parts = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(k, (int, np.integer, slice)) for k in parts):
        raise TypeError(f"index: key {key!r} is not an int, a slice or a tuple of them")

    def backward_fn(g):
        if not t.requires_grad:
            return
        if t.grad is None:
            t.grad = np.zeros_like(t.values)
        t.grad[key] += g

    return node(np.array(t.values[key]), (t,), backward_fn)


def softmax(logits) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    t = _as_tensor(logits)
    if t.values.ndim < 1:
        raise DimensionError(f"softmax needs at least one axis, got shape {t.shape}")
    if not np.all(np.isfinite(t.values)):
        raise NumericError("softmax input contains NaN or Inf")
    e = np.exp(t.values - _reduce_last(np.maximum, t.values))
    values = e / _reduce_last(np.add, e)

    def backward_fn(g):
        gs = g * values
        accum(t, gs - values * _reduce_last(np.add, gs), owned=True)

    return node(values, (t,), backward_fn)
