"""Hierarchical construction-integration attention, desk scale.

A dense-tensor autodiff core, the three-stage attention module (local
construction, global integration, top-down broadcast), a toy byte-level
host LM, and closed-form parameter/FLOPs accounting with instrumented
probes.
"""

__version__ = "0.1.0"

from .attention import (
    AttnMassRecord,
    BroadcastParams,
    GlobalParams,
    HiCIParams,
    LocalParams,
    broadcast,
    collect_attn_mass,
    hici_forward,
    init_hici_params,
    integrate_global,
    local_construct,
    named_tensors,
    partition,
    pooled_stats,
    record_attn_mass,
)
from .config import ConfigError, HiCIConfig, HostConfig
from .gradcheck import finite_diff_grad
from .tensor import (
    FLOPS,
    GraphError,
    ShapeError,
    Tensor,
    backward,
    no_grad,
    parameter,
)

__all__ = [
    "AttnMassRecord", "BroadcastParams", "ConfigError", "FLOPS", "GlobalParams",
    "GraphError", "HiCIConfig", "HiCIParams", "HostConfig", "LocalParams",
    "ShapeError", "Tensor", "backward", "broadcast", "collect_attn_mass",
    "finite_diff_grad", "hici_forward", "init_hici_params", "integrate_global",
    "local_construct", "named_tensors", "no_grad", "parameter", "partition",
    "pooled_stats", "record_attn_mass",
]
