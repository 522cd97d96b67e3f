"""Configuration types and their file format (JSON, unknown keys rejected).

Both config types are frozen and validate themselves when built, so every
construction and every `dataclasses.replace` is checked, once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


SCOPE_ALL = "all_segments"
SCOPE_PRECEDING = "preceding_segments"


# `int` and `float` come first: the ABC checks are slow
def _require_ints(cfg, names):
    for name in names:
        value = getattr(cfg, name)
        if not isinstance(value, (int, numbers.Integral)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def _require_rate(name, value, upper=None):
    """A finite real >= 0, and below `upper` when that is given."""
    if (not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool)
            or not math.isfinite(value) or value < 0 or (upper is not None and value >= upper)):
        bound = ">= 0" if upper is None else f"in [0, {upper})"
        raise ConfigError(f"{name} must be a finite number {bound}, got {value!r}")


@dataclass(frozen=True)
class HiCIConfig:
    """Architectural constants of one hierarchical attention layer.

    S: segment length (tokens). M: local slot count per segment.
    K: global slot count. H: attention heads. d: model width.
    d_b: bottleneck width for local/global attention. d_s: intermediate
    compression width. causal_segment_mask: queries see only segment
    positions <= their own (slot positions stay fully visible).
    global_scope: 'all_segments' pools every segment into the shared
    context; 'preceding_segments' is the strictly causal variant where
    segment i sees only segments < i (segment 0 gets zeros).
    """

    S: int
    M: int
    K: int
    H: int
    d: int
    d_b: int
    d_s: int
    causal_segment_mask: bool = True
    global_scope: str = SCOPE_ALL
    ln_eps: float = 1e-5

    def __post_init__(self):
        self.validate()

    @property
    def causal(self):
        """Whether no output row reads a later position: the causal mask is on, and no
        segment reads slots built from its own later tokens (the strict scope, or M = 0)."""
        return self.causal_segment_mask and (self.global_scope == SCOPE_PRECEDING or self.M == 0)

    def validate(self):
        _require_ints(self, ("S", "M", "K", "H", "d", "d_b", "d_s"))
        if self.S < 1:
            raise ConfigError(f"S must be >= 1, got {self.S}")
        if self.M < 0 or self.K < 0:
            raise ConfigError(f"M and K must be >= 0, got M={self.M}, K={self.K}")
        if self.K > 0 and self.M == 0:
            raise ConfigError("K > 0 requires M > 0: the global context pools local slots")
        if self.H < 1:
            raise ConfigError(f"H must be >= 1, got {self.H}")
        if self.d % self.H != 0:
            raise ConfigError(f"d={self.d} not divisible by H={self.H}")
        if self.d_b % self.H != 0:
            raise ConfigError(f"d_b={self.d_b} not divisible by H={self.H}")
        if not (self.d_s < self.d_b < self.d):
            raise ConfigError(
                f"widths must satisfy d_s < d_b < d, got d_s={self.d_s}, "
                f"d_b={self.d_b}, d={self.d}")
        if self.global_scope not in (SCOPE_ALL, SCOPE_PRECEDING):
            raise ConfigError(f"unknown global_scope {self.global_scope!r}")
        _require_rate("ln_eps", self.ln_eps)
        return self


@dataclass(frozen=True)
class HostConfig:
    """Toy character-level LM that hosts the attention module.

    Training: AdamW with betas in [0, 1) and decoupled `weight_decay`;
    learning rates ramp linearly over `warmup_steps` (0: no warmup);
    `grad_clip_hici` caps the global gradient norm of the attention-module
    group, and 0 turns that clip off. Rates are finite and >= 0.
    """

    vocab_size: int
    n_layers: int
    d: int
    ffn_width: int
    max_T: int
    seed: int
    hici: HiCIConfig
    lr_backbone: float = 2e-3
    lr_hici: float = 2e-2
    warmup_steps: int = 20
    grad_clip_hici: float = 0.3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    weight_decay: float = 0.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not isinstance(self.hici, HiCIConfig):   # a HiCIConfig validated itself when built
            raise ConfigError(f"hici must be a HiCIConfig, got {type(self.hici).__name__}")
        _require_ints(self, ("vocab_size", "n_layers", "d", "ffn_width", "max_T", "seed",
                             "warmup_steps"))
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.max_T < self.hici.S:
            raise ConfigError(f"max_T={self.max_T} is shorter than one segment (S={self.hici.S})")
        if self.max_T % self.hici.S != 0:
            raise ConfigError(
                f"max_T={self.max_T} not divisible by segment length S={self.hici.S}")
        if self.d != self.hici.d:
            raise ConfigError(f"host d={self.d} disagrees with attention d={self.hici.d}")
        for name in ("n_layers", "ffn_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr_backbone", "lr_hici", "grad_clip_hici", "weight_decay"):
            _require_rate(name, getattr(self, name))
        for name in ("adam_beta1", "adam_beta2"):   # 1 would zero Adam's bias correction
            _require_rate(name, getattr(self, name), upper=1)
        return self


def _from_mapping(cls, obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - names
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = {f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING} - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    return obj


def hici_config_from_dict(obj, where="config"):
    return HiCIConfig(**_from_mapping(HiCIConfig, obj, where))


def host_config_from_dict(obj, where="config"):
    obj = dict(_from_mapping(HostConfig, obj, where))
    obj["hici"] = hici_config_from_dict(obj["hici"], where=f"{where}.hici")
    return HostConfig(**obj)


def load_hici_config(path):
    with open(path, encoding="utf-8") as fh:
        return hici_config_from_dict(json.load(fh), where=str(path))


def load_host_config(path):
    with open(path, encoding="utf-8") as fh:
        return host_config_from_dict(json.load(fh), where=str(path))


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)
