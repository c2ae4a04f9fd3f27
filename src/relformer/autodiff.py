"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Operations on tensors that require gradients
build a computation graph of closures; ``backward`` walks it once in reverse
topological order, releasing it, and returns the gradients of the tensors
asked for, so no tensor stores a gradient. Two returned gradients may be one
array, so callers must not write into them. ``backward`` can also continue
the gradient sums of an earlier graph over the same leaves, so a sum of
losses can be back-propagated one loss at a time, each graph freed before
the next is built, with the bits of one backward of the sum. A forward over
tensors that require no gradient records no graph. Only the ops this
package actually needs are provided: broadcasting arithmetic, (batched)
matmul, reshape/transpose/concat/stack, indexing, reductions, the
elementwise functions used by the model, a fused softmax, and two fused
nodes of the decoder: pool-and-project for the value rows and
``attend_rows`` for the attention-weighted sum over them.

All graph construction is single-threaded per training step; concurrent
read-only forward passes are safe because parameters are never mutated
during a forward.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

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


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, max-stabilized, as one node.

    The forward is the max shift, ``exp``, sum and divide of the composed
    ops, so it gives their bits; the VJP is out * (g - sum(g * out)).
    """
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return _node(out, (a,), vjp)


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
    count = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# fused pool-and-project
# ---------------------------------------------------------------------------


def project_first(rows: int, pooled: int, k: int, frames: int, d: int, h: int) -> bool:
    """Whether pool_project should project every frame before pooling.

    ``rows`` is the number U of pooled rows, the sum of the blocks' u_i, and
    ``pooled`` is the sum of u_i * l_i over the blocks. Pool-then-project
    costs k*d*(pooled + U*h) multiply-adds: pool every row into k bins of
    width d, then multiply the U flattened rows by the (k*d, h) matrix.
    Project-then-pool costs k*h*(S*d + pooled): multiply the S frames once by
    that matrix viewed as (d, k*h), then contract each block with its pooling
    weights. With d == h this reduces to comparing the frame count S with U.
    """
    return k * h * (frames * d + pooled) < k * d * (pooled + rows * h)


def _consecutive_slices(sizes: list[int]) -> list[slice]:
    bounds = np.cumsum([0] + sizes)
    return [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def pool_project(frames, weights: Sequence[np.ndarray], w) -> Tensor:
    """(U, h) rows, block by block: row j of block i is
    flatten(weights[i][j] @ frames_i) @ w, and U is the sum of the u_i.

    ``frames`` (S, d) stacks n row blocks frames_i of l_i rows, in order;
    ``weights[i]`` is the constant (u_i, k, l_i) pooling of block i into k
    rows, u_i times; ``w`` is (k*d, h). The contraction order is the cheaper
    one by ``project_first``; both orders compute the same sum, and
    pool-then-project runs exactly the arithmetic of pooling each block,
    stacking and multiplying by ``w``. Gradients flow to ``frames`` and ``w``.
    """
    frames, w = as_tensor(frames), as_tensor(w)
    if not weights:
        raise ShapeError("pool_project needs at least one block of pooling weights")
    k = weights[0].shape[1]
    total, d = frames.shape
    h = w.shape[1]
    counts = [wt.shape[0] for wt in weights]
    lengths = [wt.shape[2] for wt in weights]
    if any(wt.shape[1] != k for wt in weights) or sum(lengths) != total:
        raise ShapeError(f"pool_project: pooling weights {[wt.shape for wt in weights]} "
                         f"do not tile {frames.shape} frames")
    if w.shape[0] != k * d:
        raise ShapeError(f"pool_project: weight {w.shape} needs {k * d} rows")
    blocks, outs = _consecutive_slices(lengths), _consecutive_slices(counts)
    rows = sum(counts)
    pooled = sum(u * l for u, l in zip(counts, lengths))
    f = frames.data

    if not project_first(rows, pooled, k, total, d, h):
        pools = [wt.reshape(-1, wt.shape[2]) for wt in weights]  # (u_i*k, l_i)
        flat = np.empty((rows, k * d))
        for pool, block, out in zip(pools, blocks, outs):
            flat[out] = (pool @ f[block]).reshape(-1, k * d)

        def vjp(g):
            g_flat = g @ w.data.T
            g_frames = np.empty_like(f)  # the blocks tile every row
            for pool, block, out in zip(pools, blocks, outs):
                g_frames[block] = pool.T @ g_flat[out].reshape(-1, d)
            return g_frames, flat.T @ g

        return _node(flat @ w.data, (frames, w), vjp)

    # Row t*k + b of a block pairs frame t with pooling bin b.
    pools = [wt.transpose(0, 2, 1).reshape(len(wt), -1) for wt in weights]  # (u_i, l_i*k)
    w_frames = w.data.reshape(k, d, h).transpose(1, 0, 2).reshape(d, k * h)
    projected = f @ w_frames  # (S, k*h)
    result = np.empty((rows, h))
    for pool, block, out in zip(pools, blocks, outs):
        result[out] = pool @ projected[block].reshape(-1, h)

    def vjp(g):
        g_projected = np.empty((total, k * h))
        for pool, block, out in zip(pools, blocks, outs):
            g_projected[block] = (pool.T @ g[out]).reshape(-1, k * h)
        g_w = (f.T @ g_projected).reshape(d, k, h).transpose(1, 0, 2).reshape(k * d, h)
        return g_projected @ w_frames.T, g_w

    return _node(result, (frames, w), vjp)


# ---------------------------------------------------------------------------
# fused attention over distinct rows
# ---------------------------------------------------------------------------


def attend_rows(attn, rows, index: np.ndarray) -> Tensor:
    """(R, m, d_v): out[r, q] = sum over i of attn[r, q, i] * rows[index[q, i]].

    ``attn`` is (R, m, n), ``rows`` the (U, d_v) distinct rows and ``index``
    the constant (m, n) row of each (q, i) pair. The sum is one sparse
    (R*m, U) matrix product whose nonzeros are the attention entries, in
    i order. That adds the same products in the same order as gathering
    ``rows[index]``, weighting it and summing over i, so it gives those bits
    without building the (m, n, d_v) matrix. The VJP scatters the upstream
    gradient into the rows through the transposed matrix, and takes the
    attention's gradient from one gather and one batched matmul. Gradients
    flow to ``attn`` and ``rows``.
    """
    attn, rows = as_tensor(attn), as_tensor(rows)
    index = np.asarray(index)
    if attn.ndim != 3 or rows.ndim != 2 or index.shape != attn.shape[1:]:
        raise ShapeError(f"attend_rows: attention {attn.shape}, rows {rows.shape} and "
                         f"index {index.shape} need shapes (R, m, n), (U, d_v), (m, n)")
    if index.size and (index.min() < 0 or index.max() >= rows.shape[0]):
        raise ShapeError(f"attend_rows: index outside the {rows.shape[0]} rows")
    r, m, n = attn.shape
    u, d_v = rows.shape
    weights = scipy.sparse.csr_matrix(
        (attn.data.reshape(-1), np.tile(index.reshape(-1), r), np.arange(0, r * m * n + 1, n)),
        shape=(r * m, u))
    out = (weights @ rows.data).reshape(r, m, d_v)

    def vjp(g):
        g_rows = weights.T @ g.reshape(r * m, d_v)
        g_attn = np.matmul(rows.data[index], g.transpose(1, 2, 0))  # (m, n, R)
        return g_attn.transpose(2, 0, 1), g_rows

    return _node(out, (attn, rows), vjp)


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


def backward(loss: Tensor, params: Sequence[Tensor],
             sums: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Gradients of the scalar ``loss``, one array per tensor in ``params``.

    A tensor the graph never reached gets zeros. Two entries may be the same
    array (a vjp can hand one gradient to two parents), so treat them as
    read-only. The graph is released on the way; calling this twice on the
    same loss node without re-running the forward pass is an error.

    ``sums`` carries running gradient sums from earlier graphs over the same
    leaves, one per tensor in ``params``. The list is taken over: it is
    emptied, each sum seeds its leaf's accumulator before this graph's uses
    are added, and the continued sums are returned. A tensor this graph does
    not reach keeps its carried sum. Seeding, rather than adding this graph's
    total at the end, keeps the order of the float adds. For losses whose
    graphs share only leaves, one backward of their left-to-right sum walks
    the losses one after another and adds each use of a leaf in that order;
    a backward per loss in the same order, with carried sums, adds the same
    uses in the same order, so its result is bit-identical.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise UsageError("backward already called on this loss; re-run the forward pass")
    grads: dict[int, np.ndarray] = {}
    if sums is not None:
        if len(sums) != len(params):
            raise UsageError(f"backward: {len(sums)} carried sums for {len(params)} tensors")
        if any(t._parents for t in params):
            raise UsageError("backward: carried sums need leaf tensors")
        # Only the accumulators hold the old sums, so each is freed as soon
        # as its successor exists.
        grads.update(zip(map(id, params), sums))
        sums.clear()
    loss._done = True

    wanted = {id(t) for t in params}
    seed = np.ones_like(loss.data)
    acc = grads.get(id(loss))
    grads[id(loss)] = seed if acc is None else acc + seed
    leaves: dict[int, np.ndarray] = {}
    for node in reversed(_topo_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in wanted:
            leaves[id(node)] = g
        if node._vjp is not None:
            for p, pg in zip(node._parents, node._vjp(g)):
                if not p.requires_grad:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
            node._vjp = None
            node._parents = ()
    leaves.update(grads)  # the carried sums of tensors this graph did not reach
    return [leaves[id(t)] if id(t) in leaves else np.zeros_like(t.data) for t in params]
