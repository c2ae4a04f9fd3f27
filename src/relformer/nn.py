"""Neural building blocks on top of the autodiff core.

Parameter tensors live in a ParamStore under dotted path names (e.g.
``"decoder.layer0.subject.query_proj"``) with deterministic, sorted iteration.
All MLPs in the model are two-layer fully-connected nets with a ReLU between
the affine layers; attention blocks are pre-norm.

A block's parameters are declared once, as a ``{name: shape}`` dict
(``mlp_shapes``, ``attention_shapes``, ``self_attention_block_shapes``);
``init_params`` fills such a dict with random values. Forward functions read
their widths from the weights, and ``ad.matmul`` raises ``ShapeError`` on a
mismatch.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import UsageError


class ParamStore:
    """Named map from parameter path to Tensor; iteration is sorted by name.

    Entries are trainable by default; ``trainable=False`` registers a frozen
    buffer (e.g. the classeme table) that is checkpointed but never updated.
    A tensor's ``requires_grad`` is the one record of whether it trains.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise UsageError(f"parameter {name!r} already registered")
        t = Tensor(value, requires_grad=trainable)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._entries[name]
        except KeyError:
            raise UsageError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(n, self._entries[n]) for n in self.names()]

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.items() if t.requires_grad]

    def trainable_tensors(self) -> list[Tensor]:
        return [t for _, t in self.trainable_items()]


# ---------------------------------------------------------------------------
# parameter shapes and initialization
# ---------------------------------------------------------------------------


def affine_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Symmetric uniform scaled by fan-in."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator,
                given: dict[str, np.ndarray] | None = None) -> ParamStore:
    """A store holding one tensor per entry of ``shapes``, drawn in dict order.

    Entries of ``given`` are taken as they are. Otherwise ``*.query_embed``
    draws N(0, 0.02), a ``tables.*`` entry N(0, 1), every other matrix
    ``affine_init``; a ``*.g`` vector is ones and every other vector zeros.
    ``tables.*`` entries are frozen.
    """
    given = given or {}
    store = ParamStore()
    for name, shape in shapes.items():
        if name in given:
            value = given[name]
        elif name.endswith(".query_embed"):
            value = rng.normal(0.0, 0.02, size=shape)
        elif name.startswith("tables."):
            value = rng.normal(0.0, 1.0, size=shape)
        elif len(shape) == 2:
            value = affine_init(rng, *shape)
        elif name.endswith(".g"):
            value = np.ones(shape)
        else:
            value = np.zeros(shape)
        store.add(name, value, trainable=not name.startswith("tables."))
    return store


def mlp_shapes(prefix: str, in_dim: int, hidden: int, out_dim: int) -> dict:
    return {f"{prefix}.w1": (in_dim, hidden), f"{prefix}.b1": (hidden,),
            f"{prefix}.w2": (hidden, out_dim), f"{prefix}.b2": (out_dim,)}


def mlp_forward(store: ParamStore, prefix: str, x: Tensor) -> Tensor:
    """Affine -> ReLU -> affine; leading dimensions of ``x`` are preserved."""
    h = ad.relu(ad.matmul(x, store[f"{prefix}.w1"]) + store[f"{prefix}.b1"])
    return ad.matmul(h, store[f"{prefix}.w2"]) + store[f"{prefix}.b2"]


def pooled_mlp_forward(store: ParamStore, prefix: str, frames: Tensor,
                       weights: list[np.ndarray]) -> Tensor:
    """(U, out_dim): the MLP of every pooled row, block by block. Row j of
    block i is the MLP of ``weights[i][j] @ frames_i`` flattened, U is the
    sum of the blocks' row counts u_i, and pooling and the first layer are
    fused by ``ad.pool_project``."""
    h = ad.relu(ad.pool_project(frames, weights, store[f"{prefix}.w1"])
                + store[f"{prefix}.b1"])
    return ad.matmul(h, store[f"{prefix}.w2"]) + store[f"{prefix}.b2"]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    x = ad.as_tensor(x)
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.tmean(ad.square(centered), axis=-1, keepdims=True)
    normed = centered / ad.sqrt(var + eps)
    return normed * gain + bias


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def attention_shapes(prefix: str, d: int) -> dict:
    shapes = {f"{prefix}.{name}": (d, d) for name in ("wq", "wk", "wv", "wo")}
    # No key bias: q.bk is the same for every key of a query, so softmax
    # cancels it and it would never get a gradient.
    shapes.update({f"{prefix}.{name}": (d,) for name in ("bq", "bv", "bo")})
    return shapes


def multi_head_attention(store: ParamStore, prefix: str, q_in: Tensor, k_in: Tensor,
                         v_in: Tensor, heads: int) -> Tensor:
    """Standard scaled dot-product attention with ``heads`` heads.

    q_in/k_in may carry additive positional terms; v_in never does.
    """
    d = q_in.shape[-1]
    dh = d // heads
    nq, nk = q_in.shape[0], k_in.shape[0]

    def split(t: Tensor, n: int) -> Tensor:
        return ad.transpose(ad.reshape(t, (n, heads, dh)), (1, 0, 2))  # (H, n, dh)

    q = split(ad.matmul(q_in, store[f"{prefix}.wq"]) + store[f"{prefix}.bq"], nq)
    k = split(ad.matmul(k_in, store[f"{prefix}.wk"]), nk)
    v = split(ad.matmul(v_in, store[f"{prefix}.wv"]) + store[f"{prefix}.bv"], nk)

    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)  # (H, nq, nk)
    mixed = ad.matmul(attn, v)  # (H, nq, dh)
    merged = ad.reshape(ad.transpose(mixed, (1, 0, 2)), (nq, d))
    return ad.matmul(merged, store[f"{prefix}.wo"]) + store[f"{prefix}.bo"]


def layer_norm_shapes(prefix: str, d: int) -> dict:
    return {f"{prefix}.g": (d,), f"{prefix}.b": (d,)}


def self_attention_block_shapes(prefix: str, d: int, hidden: int) -> dict:
    return {**attention_shapes(f"{prefix}.attn", d),
            **layer_norm_shapes(f"{prefix}.ln1", d), **layer_norm_shapes(f"{prefix}.ln2", d),
            **mlp_shapes(f"{prefix}.ffn", d, hidden, d)}


def self_attention_block(store: ParamStore, prefix: str, x: Tensor, heads: int) -> Tensor:
    """Pre-norm block: self-attention + residual, then FFN + residual."""
    h = layer_norm(x, store[f"{prefix}.ln1.g"], store[f"{prefix}.ln1.b"])
    x = x + multi_head_attention(store, f"{prefix}.attn", h, h, h, heads)
    h = layer_norm(x, store[f"{prefix}.ln2.g"], store[f"{prefix}.ln2.b"])
    return x + mlp_forward(store, f"{prefix}.ffn", h)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over a store's trainable tensors."""

    def __init__(self, lr: float, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, store: ParamStore, grads: list[np.ndarray]) -> None:
        """One update; ``grads`` pairs with ``store.trainable_items()`` in order."""
        entries = store.trainable_items()
        if len(grads) != len(entries):
            raise UsageError(f"adam_step: {len(grads)} gradients for "
                             f"{len(entries)} trainable parameters")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for (name, p), g in zip(entries, grads):
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                v = self._v[name] = np.zeros_like(p.data)
            # In place, in the operation order of
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            #   p -= lr*(m/c1) / (sqrt(v/c2) + eps)
            # so results stay bit-identical. g is never written: backward can
            # hand one array to two parameters.
            scratch = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += scratch
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - self.beta2
            v *= self.beta2
            v += scratch
            np.divide(v, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            step = m / c1
            step *= self.lr
            step /= scratch
            p.data -= step


def clip_grad_norm(grads: list[np.ndarray], max_norm: float
                   ) -> tuple[float, list[np.ndarray]]:
    """(global L2 norm, gradients scaled so that norm is at most ``max_norm``).

    The inputs are never written; scaled gradients are new arrays.
    """
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return norm, grads
