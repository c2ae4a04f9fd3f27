"""Dense float tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array and keeps the floating dtype it is given; other
data (integers, booleans, lists) becomes float64. Nothing here chooses a
compute dtype: every op runs in the dtype of its operands, so a float32
model computes in float32 and the finite-difference tests run the same ops
in float64. A Python or NumPy scalar operand of ``add``, ``sub``, ``mul``
or ``div`` takes the dtype of the tensor it meets, as NumPy treats Python
numbers, so ``mul(x, 0.5)`` never widens a float32 ``x``.

Operations on tensors that require gradients build a computation graph:
each node keeps one edge, a (parent, vjp) pair, per parent that requires a
gradient, and the edge's vjp maps the node's gradient to that parent's. A
constant parent gets no edge, so no gradient of a constant is ever formed.
``backward`` walks the edges once in reverse topological order, releasing
them, and returns the gradients of the tensors asked for, so no tensor
stores a gradient. Two returned gradients may be one
array, so callers must not write into them. ``backward`` can also continue
the gradient sums of an earlier graph over the same leaves, so a sum of
losses can be back-propagated one loss at a time, each graph freed before
the next is built, with the bits of one backward of the sum. A forward over
tensors that require no gradient records no graph. Only the ops the
package's own code calls are provided (``tests/test_unused_imports.py``
checks that each is reached): broadcasting ``add``, ``sub``, ``neg``,
``mul`` and ``div``, with ``+``, ``-``, ``*``, ``/`` after a tensor and
``scalar - tensor``; (batched) ``matmul``; ``reshape``, ``transpose``,
``concat`` and ``stack``; ``getitem``; the reduction ``tsum``; the
elementwise ``relu``, ``log``, ``sqrt``, ``square`` and ``clip``; a fused
``softmax``; and two fused nodes of the decoder: ``pool_project`` for the
value rows and ``attend_rows`` for the attention-weighted sum over them.

All graph construction is single-threaded per training step; concurrent
read-only forward passes are safe because parameters are never mutated
during a forward.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse

from .errors import ShapeError, UsageError


class Tensor:
    """A dense array node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "_edges", "_done")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self._edges: tuple[tuple[Tensor, Callable[[np.ndarray], np.ndarray]], ...] = ()
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

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_SCALARS = (int, float, np.number)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a scalar takes the other operand's dtype."""
    if isinstance(b, _SCALARS) and isinstance(a, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(a, _SCALARS) and isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def constant(x) -> Tensor:
    """A graph leaf that never receives gradient."""
    return Tensor(x, requires_grad=False)


def _node(data: np.ndarray, *edges: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """A tensor holding ``data``, computed from the parents named in ``edges``.

    Each edge is a (parent, vjp) pair, one per parent in argument order; a
    parent used twice has two edges. ``vjp(g)`` returns the gradient for that
    parent alone, given the gradient ``g`` of the output. Only the edges
    whose parent requires a gradient are kept, in order, and the output
    requires a gradient when one is kept; this is the one place that decides
    which gradients exist. ``backward`` calls each kept vjp once, so two
    edges may share work through their closures.
    """
    out = Tensor(data)
    kept = tuple([e for e in edges if e[0].requires_grad])
    if kept:
        out.requires_grad = True
        out._edges = kept
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
    a, b = _operands(a, b)
    return _node(a.data + b.data,
                 (a, lambda g: _unbroadcast(g, a.shape)),
                 (b, lambda g: _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data - b.data,
                 (a, lambda g: _unbroadcast(g, a.shape)),
                 (b, lambda g: _unbroadcast(-g, b.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data * b.data,
                 (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data / b.data
    return _node(out,
                 (a, lambda g: _unbroadcast(g / b.data, a.shape)),
                 (b, lambda g: _unbroadcast(-g * out / b.data, b.shape)))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return _node(np.matmul(a.data, b.data),
                 (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)),
                 (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)))


# ---------------------------------------------------------------------------
# elementwise functions
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a, lambda g: g * mask))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a, lambda g: g / a.data))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _node(out, (a, lambda g: g / (2.0 * out)))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _node(a.data * a.data, (a, lambda g: 2.0 * g * a.data))


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, max-stabilized, as one node.

    The forward is the max shift, ``exp``, sum and divide of the composed
    ops, so it gives their bits; the VJP is out * (g - sum(g * out)).
    """
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    return _node(out, (a, lambda g: out * (g - (g * out).sum(axis=axis, keepdims=True))))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through inside the range."""
    a = as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return _node(np.clip(a.data, lo, hi), (a, lambda g: g * mask))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return _node(a.data.reshape(shape), (a, lambda g: g.reshape(a.shape)))


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(np.transpose(a.data, axes), (a, lambda g: np.transpose(g, inv)))


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Join along ``axis``; each part's gradient is a view of its slice of
    the output's, as ``np.split`` gives."""
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    bounds = [0, *itertools.accumulate(p.shape[axis] for p in parts)]
    return _node(out, *((p, lambda g, key=lead + (slice(lo, hi),): g[key])
                        for p, lo, hi in zip(parts, bounds, bounds[1:])))


def stack(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.stack([p.data for p in parts], axis=axis)
    return _node(out, *((p, lambda g, i=i: np.moveaxis(g, axis, 0)[i])
                        for i, p in enumerate(parts)))


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
        return full

    return _node(out, (a, vjp))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a, axis: int | None = None) -> Tensor:
    """The sum of every entry (0-d), or the sum along ``axis`` with that
    axis kept at length 1; either way the output broadcasts against ``a``."""
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=axis is not None)
    return _node(out, (a, lambda g: np.broadcast_to(g, a.shape).copy()))


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
    rows, u_i times, in the dtype of ``frames``; ``w`` is (k*d, h). The
    contraction order is the cheaper one by ``project_first``; both orders
    compute the same sum, and pool-then-project runs exactly the arithmetic
    of pooling each block, stacking and multiplying by ``w``. Gradients flow to ``frames`` and ``w``.
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
    dtype = np.result_type(f, w.data)

    if not project_first(rows, pooled, k, total, d, h):
        pools = [wt.reshape(-1, wt.shape[2]) for wt in weights]  # (u_i*k, l_i)
        flat = np.empty((rows, k * d), dtype)
        for pool, block, out in zip(pools, blocks, outs):
            flat[out] = (pool @ f[block]).reshape(-1, k * d)

        def frames_vjp(g):
            g_flat = g @ w.data.T
            g_frames = np.empty_like(f)  # the blocks tile every row
            for pool, block, out in zip(pools, blocks, outs):
                g_frames[block] = pool.T @ g_flat[out].reshape(-1, d)
            return g_frames

        return _node(flat @ w.data, (frames, frames_vjp), (w, lambda g: flat.T @ g))

    # Row t*k + b of a block pairs frame t with pooling bin b.
    pools = [wt.transpose(0, 2, 1).reshape(len(wt), -1) for wt in weights]  # (u_i, l_i*k)

    def w_frames():
        """``w`` laid out as (d, k*h). A copy as large as ``w``, so the graph
        does not keep it: the frames VJP forms it again from ``w.data``."""
        return w.data.reshape(k, d, h).transpose(1, 0, 2).reshape(d, k * h)

    projected = f @ w_frames()  # (S, k*h)
    result = np.empty((rows, h), dtype)
    for pool, block, out in zip(pools, blocks, outs):
        result[out] = pool @ projected[block].reshape(-1, h)

    shared: list[np.ndarray] = []

    def g_projected(g):
        """The (S, k*h) block contraction both edges read, formed once."""
        if not shared:
            shared.append(np.empty((total, k * h), g.dtype))
            for pool, block, out in zip(pools, blocks, outs):
                shared[0][block] = (pool.T @ g[out]).reshape(-1, k * h)
        return shared[0]

    def w_vjp(g):
        return (f.T @ g_projected(g)).reshape(d, k, h).transpose(1, 0, 2).reshape(k * d, h)

    return _node(result, (frames, lambda g: g_projected(g) @ w_frames().T), (w, w_vjp))


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

    def attn_vjp(g):
        g_attn = np.matmul(rows.data[index], g.transpose(1, 2, 0))  # (m, n, R)
        return g_attn.transpose(2, 0, 1)

    return _node(out, (attn, attn_vjp), (rows, lambda g: weights.T @ g.reshape(r * m, d_v)))


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
        for p, _ in node._edges:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params: Sequence[Tensor],
             sums: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Gradients of the scalar ``loss``, one array per tensor in ``params``.

    A tensor the graph never reached gets zeros. Two entries may be the same
    array (two edges' vjps can hand on one gradient), so treat them as
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
        if any(t._edges for t in params):
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
        g = grads.pop(id(node))  # every node in the order is reached by an edge
        if id(node) in wanted:
            leaves[id(node)] = g
        for p, vjp in node._edges:
            pg = vjp(g)
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
        node._edges = ()
    leaves.update(grads)  # the carried sums of tensors this graph did not reach
    return [leaves[id(t)] if id(t) in leaves else np.zeros_like(t.data) for t in params]
