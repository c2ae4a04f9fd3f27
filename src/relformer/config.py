"""Run configuration: model/train/data/eval sections plus a global seed,
the one seed of both ``synth`` (the generated data) and ``train`` (the
initial weights and the batch order).

Defaults are the reference hyperparameters (hidden widths 512, pooling
lengths 4 and 7, 6 encoder / 4 decoder layers, a 16x12 anchor grid, Adam at
5e-5 with batches of 4 for 50 epochs, loss weights 1.0/30.0). A JSON config
file overrides defaults section by section; CLI flags override the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .errors import ConfigError
from .synth import SynthConfig


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false is no count.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelConfig:
    d: int = 512
    d_q: int = 512
    d_v: int = 512
    d_a: int = 1024
    d_w: int = 300
    l: int = 4
    l_roi: int = 7
    L_e: int = 6
    L_d: int = 4
    m_c: int = 16
    m_d: int = 12
    heads: int = 8
    mlp_hidden: int = 512

    def __post_init__(self):
        for name in ("d", "d_q", "d_v", "d_a", "d_w", "l", "l_roi",
                     "L_e", "L_d", "m_c", "m_d", "heads", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be positive, got {getattr(self, name)}")
        if self.d % 2 != 0:
            raise ConfigError(f"model.d must be even, got {self.d}")
        if self.d % self.heads != 0:
            raise ConfigError(f"model.d={self.d} not divisible by model.heads={self.heads}")
        if self.d_q % self.heads != 0:
            raise ConfigError(f"model.d_q={self.d_q} not divisible by model.heads={self.heads}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class TrainConfig:
    lambda_cls: float = 1.0
    lambda_att: float = 30.0
    lr: float = 5e-5
    batch_size: int = 4
    epochs: int = 50
    save_interval: int = 0
    max_grad_norm: float | None = None

    def __post_init__(self):
        # Each check asks for the valid case, so NaN fails it too.
        for name in ("lambda_cls", "lambda_att", "lr"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"train.{name} must be a finite number >= 0, got {value!r}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"train.epochs must be >= 0, got {self.epochs}")
        if self.save_interval < 0:
            raise ConfigError("train.save_interval must be >= 0")
        if self.max_grad_norm is not None and not 0.0 < self.max_grad_norm < math.inf:
            raise ConfigError("train.max_grad_norm must be a finite number > 0 when set, "
                              f"got {self.max_grad_norm!r}")


@dataclass(frozen=True)
class EvalConfig:
    """The one source of the evaluation settings: no package function has
    defaults for them. ``train`` reads ``viou_threshold`` as well."""

    viou_threshold: float = 0.5
    recall_ks: tuple[int, ...] = (50, 100)
    precision_ks: tuple[int, ...] = (1, 5, 10)
    top_k_per_query: int = 10

    def __post_init__(self):
        if not (0.0 < self.viou_threshold < 1.0):
            raise ConfigError("eval.viou_threshold must lie in (0, 1), "
                              f"got {self.viou_threshold!r}")
        if self.top_k_per_query < 1:
            raise ConfigError("eval.top_k_per_query must be >= 1")
        for name in ("recall_ks", "precision_ks"):
            ks = getattr(self, name)
            if not ks or any(k < 1 for k in ks):
                raise ConfigError(f"eval.{name} must be positive integers")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "synth": SynthConfig,
             "eval": EvalConfig}


# List field type -> (item check, what the items must be).
_LIST_ITEMS = {tuple[int, ...]: (_is_int, "integers"),
               tuple[str, ...]: (lambda v: isinstance(v, str), "strings")}


def _build_section(cls, payload: dict, section: str):
    hints = typing.get_type_hints(cls)  # field name -> type
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise ConfigError(f"{section}.{unknown[0]}: unknown field")
    coerced = {}
    for key, value in payload.items():
        if hints[key] is int and not _is_int(value):
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        if hints[key] is float and not _is_number(value):
            raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
        if hints[key] == float | None and not (value is None or _is_number(value)):
            raise ConfigError(f"{section}.{key} must be a number or null, got {value!r}")
        if hints[key] in _LIST_ITEMS:
            is_item, items = _LIST_ITEMS[hints[key]]
            if not (isinstance(value, list) and all(is_item(k) for k in value)):
                raise ConfigError(f"{section}.{key} must be a list of {items}, "
                                  f"got {json.dumps(value)}")
            value = tuple(value)
        coerced[key] = value
    try:
        return cls(**coerced)
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the JSON file, then flat overrides like ``train.lr``."""
    payload: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                payload = json.load(f)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config root must be an object")

    for name in _SECTIONS:
        if not isinstance(payload.get(name, {}), dict):
            raise ConfigError(f"{name}: section must be an object")
    sections = {name: dict(payload.get(name, {})) for name in _SECTIONS}
    unknown = sorted(set(payload) - set(_SECTIONS) - {"seed"})
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown config section")
    seed = payload.get("seed", 0)

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "seed":
            seed = value
            continue
        section, _, fname = key.partition(".")
        if section not in sections or not fname:
            raise ConfigError(f"{key}: unknown override")
        sections[section][fname] = value

    # numpy seeds must be non-negative.
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed: must be a non-negative integer, got {seed!r}")
    return RunConfig(
        model=_build_section(ModelConfig, sections["model"], "model"),
        train=_build_section(TrainConfig, sections["train"], "train"),
        synth=_build_section(SynthConfig, sections["synth"], "synth"),
        eval=_build_section(EvalConfig, sections["eval"], "eval"),
        seed=seed,
    )
