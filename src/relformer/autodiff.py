"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Operations on tensors that require gradients
build a computation graph of closures; ``backward`` walks it once in reverse
topological order and returns the gradients of the tensors asked for, so no
tensor stores a gradient. Two returned gradients may be one array, so
callers must not write into them. A forward over tensors that require no
gradient records no graph. Only the ops this package actually needs are
provided: broadcasting arithmetic, (batched) matmul,
reshape/transpose/concat/stack, indexing, reductions, the elementwise
functions used by the model, and the fused pool-and-project node of the
decoder value matrix.

All graph construction is single-threaded per training step; concurrent
read-only forward passes are safe because parameters are never mutated
during a forward.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError, UsageError

DTYPE = np.float64


class Tensor:
    """A dense array node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; mirrors the module-level functions below.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A graph leaf that never receives gradient."""
    return Tensor(x, requires_grad=False)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * out / b.data, b.shape),
        )

    return _node(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# elementwise functions
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _node(out, (a,), lambda g: (g / (2.0 * out),))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _node(a.data * a.data, (a,), lambda g: (2.0 * g * a.data,))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through inside the range."""
    a = as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return _node(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(parts), vjp)


def stack(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.stack([p.data for p in parts], axis=axis)

    def vjp(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _node(out, tuple(parts), vjp)


def _is_basic_key(key) -> bool:
    """True for ints, slices, None and Ellipsis: such a key never repeats an entry."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out = a.data[key]
    basic = _is_basic_key(key)

    def vjp(g):
        full = np.zeros_like(a.data)
        if basic:
            full[key] = g
        else:  # array keys may repeat indices, so their gradients accumulate
            np.add.at(full, key, g)
        return (full,)

    return _node(out, (a,), vjp)


def take(a, indices, axis: int) -> Tensor:
    """Select along ``axis`` with an integer index array (gather)."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take(a.data, idx, axis=axis)

    def vjp(g):
        full = np.zeros_like(a.data)
        key = (slice(None),) * axis + (idx,)
        np.add.at(full, key, g)
        return (full,)

    return _node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[i] for i in axis]))
    else:
        count = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# fused pool-and-project
# ---------------------------------------------------------------------------


def project_first(m: int, n: int, k: int, frames: int, d: int, h: int) -> bool:
    """Whether pool_project should project every frame before pooling.

    Pool-then-project costs m*k*(S*d + n*d*h) multiply-adds: pool the m*n
    (query, block) pairs into k rows of width d, then multiply the m*n
    flattened rows by the (k*d, h) matrix. Project-then-pool costs
    k*S*h*(d + m): multiply the S frames once by that matrix viewed as
    (d, k*h), then contract each block with its pooling weights. With d == h
    this reduces to comparing the frame count S with m*n.
    """
    return k * frames * h * (d + m) < m * k * (frames * d + n * d * h)


def pool_project(frames, weights: Sequence[np.ndarray], w) -> Tensor:
    """(m*n, h) rows out[q*n + i] = flatten(weights[i][q] @ frames_i) @ w.

    ``frames`` (S, d) stacks n row blocks frames_i of l_i rows, in order;
    ``weights[i]`` is the constant (m, k, l_i) pooling of block i into k rows
    for each of m queries; ``w`` is (k*d, h). The contraction order is the
    cheaper one by ``project_first``; both orders compute the same sum, and
    pool-then-project runs exactly the arithmetic of pooling each block,
    stacking and multiplying by ``w``. Gradients flow to ``frames`` and ``w``.
    """
    frames, w = as_tensor(frames), as_tensor(w)
    if not weights:
        raise ShapeError("pool_project needs at least one block of pooling weights")
    m, k = weights[0].shape[:2]
    n = len(weights)
    total, d = frames.shape
    h = w.shape[1]
    lengths = [wt.shape[2] for wt in weights]
    if any(wt.shape[:2] != (m, k) for wt in weights) or sum(lengths) != total:
        raise ShapeError(f"pool_project: pooling weights {[wt.shape for wt in weights]} "
                         f"do not tile {frames.shape} frames")
    if w.shape[0] != k * d:
        raise ShapeError(f"pool_project: weight {w.shape} needs {k * d} rows")
    bounds = np.cumsum([0] + lengths)
    blocks = [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(n)]
    f = frames.data

    if not project_first(m, n, k, total, d, h):
        pools = [wt.reshape(m * k, -1) for wt in weights]  # (m*k, l_i)
        flat = np.empty((m, n, k * d))
        for i, (pool, block) in enumerate(zip(pools, blocks)):
            flat[:, i] = (pool @ f[block]).reshape(m, k * d)
        flat = flat.reshape(m * n, k * d)

        def vjp(g):
            g_flat = (g @ w.data.T).reshape(m, n, k * d)
            g_frames = np.empty_like(f)  # the blocks tile every row
            for i, (pool, block) in enumerate(zip(pools, blocks)):
                g_frames[block] = pool.T @ g_flat[:, i].reshape(m * k, d)
            return g_frames, flat.T @ g

        return _node(flat @ w.data, (frames, w), vjp)

    # Row t*k + b of a block pairs frame t with pooling bin b.
    pools = [wt.transpose(0, 2, 1).reshape(m, -1) for wt in weights]  # (m, l_i*k)
    w_frames = w.data.reshape(k, d, h).transpose(1, 0, 2).reshape(d, k * h)
    projected = f @ w_frames  # (S, k*h)
    out = np.empty((m, n, h))
    for i, (pool, block) in enumerate(zip(pools, blocks)):
        out[:, i] = pool @ projected[block].reshape(-1, h)

    def vjp(g):
        g = g.reshape(m, n, h)
        g_projected = np.empty((total, k * h))
        for i, (pool, block) in enumerate(zip(pools, blocks)):
            g_projected[block] = (pool.T @ g[:, i]).reshape(-1, k * h)
        g_w = (f.T @ g_projected).reshape(d, k, h).transpose(1, 0, 2).reshape(k * d, h)
        return g_projected @ w_frames.T, g_w

    return _node(out.reshape(m * n, h), (frames, w), vjp)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar ``loss``, one array per tensor in ``params``.

    A tensor the graph never reached gets zeros. Two entries may be the same
    array (a vjp can hand one gradient to two parents), so treat them as
    read-only. The graph is released on the way; calling this twice on the
    same loss node without re-running the forward pass is an error.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise UsageError("backward already called on this loss; re-run the forward pass")
    loss._done = True

    wanted = {id(t) for t in params}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, np.ndarray] = {}
    for node in reversed(_topo_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in wanted:
            leaves[id(node)] = g
        if node._vjp is not None:
            for p, pg in zip(node._parents, node._vjp(g)):
                if not p.requires_grad or pg is None:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
            node._vjp = None
            node._parents = ()
    return [leaves.get(id(t), np.zeros_like(t.data)) for t in params]
