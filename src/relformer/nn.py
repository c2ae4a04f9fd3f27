"""Neural building blocks on top of the autodiff core.

Parameter tensors live in a ParamStore under dotted path names (e.g.
``"decoder.layer0.role_s.query_proj"``) with deterministic, sorted iteration.
All MLPs in the model are two-layer fully-connected nets with a ReLU between
the affine layers; attention blocks are pre-norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, UsageError


@dataclass(frozen=True)
class MlpSpec:
    """Two affine layers with one rectifier in between."""

    in_dim: int
    hidden_dim: int
    out_dim: int

    def __post_init__(self):
        for field in ("in_dim", "hidden_dim", "out_dim"):
            if getattr(self, field) < 1:
                raise ConfigError(f"MlpSpec.{field} must be positive, got {getattr(self, field)}")


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

    def is_trainable(self, name: str) -> bool:
        return self[name].requires_grad


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def affine_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Symmetric uniform scaled by fan-in."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_mlp(store: ParamStore, prefix: str, spec: MlpSpec,
             rng: np.random.Generator) -> None:
    store.add(f"{prefix}.w1", affine_init(rng, spec.in_dim, spec.hidden_dim))
    store.add(f"{prefix}.b1", np.zeros(spec.hidden_dim))
    store.add(f"{prefix}.w2", affine_init(rng, spec.hidden_dim, spec.out_dim))
    store.add(f"{prefix}.b2", np.zeros(spec.out_dim))


def mlp_forward(store: ParamStore, prefix: str, spec: MlpSpec, x: Tensor) -> Tensor:
    """Affine -> ReLU -> affine; leading dimensions of ``x`` are preserved."""
    x = ad.as_tensor(x)
    if x.shape[-1] != spec.in_dim:
        raise ShapeError(
            f"{prefix}: input trailing dim {x.shape[-1]} != in_dim {spec.in_dim}")
    h = ad.relu(ad.matmul(x, store[f"{prefix}.w1"]) + store[f"{prefix}.b1"])
    return ad.matmul(h, store[f"{prefix}.w2"]) + store[f"{prefix}.b2"]


def pooled_mlp_forward(store: ParamStore, prefix: str, frames: Tensor,
                       weights: list[np.ndarray]) -> Tensor:
    """(m*n, out_dim): row q*n + i is the MLP of ``weights[i][q] @ frames_i``
    flattened, with pooling and the first layer fused by ``ad.pool_project``."""
    h = ad.relu(ad.pool_project(frames, weights, store[f"{prefix}.w1"])
                + store[f"{prefix}.b1"])
    return ad.matmul(h, store[f"{prefix}.w2"]) + store[f"{prefix}.b2"]


# ---------------------------------------------------------------------------
# normalization and softmax
# ---------------------------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    x = ad.as_tensor(x)
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.tmean(ad.square(centered), axis=-1, keepdims=True)
    normed = centered / ad.sqrt(var + eps)
    return normed * gain + bias


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, max-stabilized."""
    x = ad.as_tensor(x)
    shift = x.data.max(axis=-1, keepdims=True)  # constant shift, exact for gradients
    e = ad.exp(x - shift)
    return e / ad.tsum(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def init_attention(store: ParamStore, prefix: str, d: int,
                   rng: np.random.Generator) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        store.add(f"{prefix}.{name}", affine_init(rng, d, d))
    # No key bias: q.bk is the same for every key of a query, so softmax
    # cancels it and it would never get a gradient.
    for name in ("bq", "bv", "bo"):
        store.add(f"{prefix}.{name}", np.zeros(d))


def multi_head_attention(store: ParamStore, prefix: str, q_in: Tensor, k_in: Tensor,
                         v_in: Tensor, heads: int) -> Tensor:
    """Standard scaled dot-product attention with ``heads`` heads.

    q_in/k_in may carry additive positional terms; v_in never does.
    """
    d = q_in.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"{prefix}: model dim {d} not divisible by heads={heads}")
    dh = d // heads
    nq, nk = q_in.shape[0], k_in.shape[0]

    def split(t: Tensor, n: int) -> Tensor:
        return ad.transpose(ad.reshape(t, (n, heads, dh)), (1, 0, 2))  # (H, n, dh)

    q = split(ad.matmul(q_in, store[f"{prefix}.wq"]) + store[f"{prefix}.bq"], nq)
    k = split(ad.matmul(k_in, store[f"{prefix}.wk"]), nk)
    v = split(ad.matmul(v_in, store[f"{prefix}.wv"]) + store[f"{prefix}.bv"], nk)

    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    attn = softmax_lastdim(scores)  # (H, nq, nk)
    mixed = ad.matmul(attn, v)  # (H, nq, dh)
    merged = ad.reshape(ad.transpose(mixed, (1, 0, 2)), (nq, d))
    return ad.matmul(merged, store[f"{prefix}.wo"]) + store[f"{prefix}.bo"]


def init_self_attention_block(store: ParamStore, prefix: str, d: int, hidden: int,
                              rng: np.random.Generator) -> None:
    init_attention(store, f"{prefix}.attn", d, rng)
    store.add(f"{prefix}.ln1.g", np.ones(d))
    store.add(f"{prefix}.ln1.b", np.zeros(d))
    store.add(f"{prefix}.ln2.g", np.ones(d))
    store.add(f"{prefix}.ln2.b", np.zeros(d))
    init_mlp(store, f"{prefix}.ffn", MlpSpec(d, hidden, d), rng)


def self_attention_block(store: ParamStore, prefix: str, x: Tensor, heads: int,
                         ffn_spec: MlpSpec, pos: Tensor | None = None) -> Tensor:
    """Pre-norm block: self-attention + residual, then FFN + residual.

    ``pos`` is an optional additive positional term applied to the attention
    queries and keys only.
    """
    h = layer_norm(x, store[f"{prefix}.ln1.g"], store[f"{prefix}.ln1.b"])
    qk = h + pos if pos is not None else h
    x = x + multi_head_attention(store, f"{prefix}.attn", qk, qk, h, heads)
    h = layer_norm(x, store[f"{prefix}.ln2.g"], store[f"{prefix}.ln2.b"])
    return x + mlp_forward(store, f"{prefix}.ffn", ffn_spec, h)


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
