"""Closed-form parameter and FLOPs accounting, plus length-scaling probes.

Conventions, pinned by reproducing the published accounting to display
precision: one multiply-add is 2 FLOPs, counts are forward-pass only at
batch size 1 across all layers, and the parameter-overhead denominator
includes the added parameters (added / (base + added)). The segmented
and hierarchical FLOPs rows assume a fixed segment count (4 by default),
i.e. S = T/4 at every context length.

`scaling_probe` runs the real module with the FLOP counter armed and
reports measured versus analytic per-scope counts, so the closed-form
model and the implementation police each other.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .attention import HiCIParams, hici_forward, init_hici_params, named_tensors
from .config import SCOPE_PRECEDING, ConfigError, HiCIConfig
from .tensor import ShapeError, Tensor, measure_flops, no_grad

PARAM_COMPONENTS = ("slots", "local_attn", "compression", "global_queries",
                    "lightweight_attn", "expansion")

FLOP_COMPONENTS = ("Attn", "Proj", "FFN", "Others", "LC+GI")
# the component of each module tensor, by the first prefix its `named_tensors` name starts with
_CENSUS_PREFIXES = (("local.slots", "slots"), ("local.", "local_attn"),
                    ("global.compress", "compression"), ("global.queries", "global_queries"),
                    ("global.w_", "lightweight_attn"), ("global.", "expansion"),
                    ("broadcast.", "broadcast"))


@dataclass(frozen=True)
class ModelDims:
    d: int
    n_layers: int
    ffn_width: int
    vocab: int


@dataclass(frozen=True)
class Preset:
    dims: ModelDims
    cfg: HiCIConfig
    base_params: float


ACCOUNTING_PRESETS = {
    "llama2-7b": Preset(
        dims=ModelDims(d=4096, n_layers=32, ffn_width=11008, vocab=32000),
        cfg=HiCIConfig(S=2048, M=8, K=4, H=8, d=4096, d_b=512, d_s=128),
        base_params=6.74e9,
    ),
    "llama2-13b": Preset(
        dims=ModelDims(d=5120, n_layers=40, ffn_width=13824, vocab=32000),
        cfg=HiCIConfig(S=2048, M=8, K=4, H=10, d=5120, d_b=640, d_s=160),
        base_params=13.02e9,
    ),
}

# desk-scale config small enough for finite-difference sweeps
MICRO_CFG = HiCIConfig(S=4, M=2, K=2, H=2, d=16, d_b=8, d_s=4)

PAPER_CONTEXTS = (8192, 16384, 32768, 65536, 102400)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ParamBreakdown:
    """Added-parameter counts: per-layer by component, totals, overhead."""

    per_layer: dict
    n_layers: int
    base_params: float

    @property
    def local_per_layer(self):
        return self.per_layer["slots"] + self.per_layer["local_attn"]

    @property
    def global_per_layer(self):
        return sum(self.per_layer[c] for c in
                   ("compression", "global_queries", "lightweight_attn", "expansion"))

    @property
    def per_layer_total(self):
        return sum(self.per_layer.values())

    @property
    def total(self):
        return self.per_layer_total * self.n_layers

    @property
    def overhead(self):
        return self.total / (self.base_params + self.total) if self.total else 0.0


def count_params(cfg, n_layers, base_params):
    """Closed-form added-parameter count from the architectural constants.

    Gradient-free formula twin of an actual construction: slots M*d;
    local attention 4*d*d_b; shared compression d*d_s + 2*d_s + d_s*d_b
    + 2*d_b (two projections, two affine LayerNorms); queries K*d_b;
    lightweight attention 4*d_b^2 (Q/K/V/O); expansion d_b*d plus the
    gate scalar. A disabled global stage (K=0) contributes nothing.
    Broadcast projections are not counted: in the accounting convention
    they stand in for the host block's own attention projections.
    """
    if n_layers < 1 or not (math.isfinite(base_params) and base_params >= 0):
        raise ConfigError(f"need n_layers >= 1 and a finite base_params >= 0, "
                          f"got n_layers={n_layers}, base_params={base_params}")
    d, d_b, d_s, m, k = cfg.d, cfg.d_b, cfg.d_s, cfg.M, cfg.K
    per_layer = {
        "slots": m * d,
        "local_attn": (3 * d * d_b + d_b * d) if m > 0 else 0,
        "compression": (d * d_s + 2 * d_s + d_s * d_b + 2 * d_b) if k > 0 else 0,
        "global_queries": k * d_b,
        "lightweight_attn": 4 * d_b * d_b if k > 0 else 0,
        "expansion": (d_b * d + 1) if k > 0 else 0,
    }
    return ParamBreakdown(per_layer=per_layer, n_layers=n_layers, base_params=base_params)


def param_census(params: HiCIParams):
    """Count the tensors of a constructed parameter set, per component.

    The 'broadcast' entry is reported for completeness but lies outside
    the overhead breakdown (see `count_params`).
    """
    census = dict.fromkeys(PARAM_COMPONENTS + ("broadcast",), 0)
    for name, t in named_tensors(params).items():
        census[next(c for prefix, c in _CENSUS_PREFIXES if name.startswith(prefix))] += t.size
    return census


# ---------------------------------------------------------------------------
# FLOPs


@dataclass
class CostBreakdown:
    method: str      # 'full' | 'segmented' | 'hici'
    context: int
    components: dict  # FLOP_COMPONENTS -> FLOPs

    @property
    def total(self):
        return sum(self.components.values())


def lc_gi_flops_per_layer(cfg, T):
    """Itemized matmul FLOPs of the local and global stages for one layer.

    Mirrors the implementation op for op, so the instrumented counter's
    matmul bucket for these scopes matches this sum exactly. Dominated by
    the segment-token key/value projections, 4*T*d*d_b. The global stage
    runs once per pool: one pool of all segments, or in the
    'preceding_segments' scope one per segment after the first (N - 1),
    all sharing one query projection.
    """
    d, d_b, d_s, m, k, s = cfg.d, cfg.d_b, cfg.d_s, cfg.M, cfg.K, cfg.S
    if m == 0:
        return {}
    n = T // s
    items = {
        "local_kv_proj": 4 * T * d * d_b,
        "local_q_proj": n * 2 * m * d * d_b,
        "local_attn": 4 * T * m * d_b,
        "local_out_proj": n * 2 * m * d_b * d,
    }
    pools = n - 1 if cfg.global_scope == SCOPE_PRECEDING else 1
    if k > 0 and pools > 0:
        items.update({
            "compression": pools * (2 * 5 * d * d_s + 2 * 5 * d_s * d_b),
            "global_q_proj": 2 * k * d_b * d_b,
            "global_kv_proj": pools * 4 * 5 * d_b * d_b,
            "global_attn": pools * 4 * k * 5 * d_b,
            "global_out_proj": pools * 2 * k * d_b * d_b,
            "expansion": pools * 2 * k * d_b * d,
        })
    return items


def count_flops(method, T, dims: ModelDims, cfg: HiCIConfig):
    """Forward-pass FLOPs for one context length under one method.

    Attn counts the score and value matmuls of the attention window
    (T positions for 'full', S for 'segmented', S+K+M for 'hici');
    Proj the block Q/K/V/O projections; FFN the three feed-forward
    matmuls; Others the LM head. LC+GI itemizes the added stages and is
    zero for the baselines.
    """
    if method not in ("full", "segmented", "hici"):
        raise ValueError(f"unknown method {method!r}")
    layers, d = dims.n_layers, dims.d
    comps = {
        "Proj": layers * 8 * T * d * d,
        "FFN": layers * 6 * T * d * dims.ffn_width,
        "Others": 2 * T * d * dims.vocab,
        "LC+GI": 0,
    }
    if method == "full":
        comps["Attn"] = layers * 4 * T * T * d
    else:
        if T % cfg.S != 0:
            raise ShapeError(
                f"context T={T} is not divisible by segment length S={cfg.S}")
        window = cfg.S if method == "segmented" else cfg.S + cfg.K + cfg.M
        comps["Attn"] = layers * 4 * T * window * d
        if method == "hici":
            comps["LC+GI"] = layers * sum(lc_gi_flops_per_layer(cfg, T).values())
    return CostBreakdown(method=method, context=T,
                         components={c: comps[c] for c in FLOP_COMPONENTS})


def flops_table(preset: Preset, contexts=PAPER_CONTEXTS, n_segments=4):
    """CostBreakdowns for all three methods at each context, S = T/n_segments."""
    if n_segments < 1 or any(T < 1 for T in contexts):
        raise ConfigError(f"contexts and n_segments must be >= 1, "
                          f"got contexts={list(contexts)}, n_segments={n_segments}")
    rows = []
    for T in contexts:
        if T % n_segments != 0:
            raise ShapeError(f"context T={T} not divisible into {n_segments} segments")
        cfg = dataclasses.replace(preset.cfg, S=T // n_segments)
        for method in ("full", "segmented", "hici"):
            rows.append(count_flops(method, T, preset.dims, cfg))
    return rows


# ---------------------------------------------------------------------------
# instrumented scaling probe


@dataclass
class ProbeRow:
    T: int
    flops_total: float           # everything the counter saw
    flops_matmul: dict           # scope -> matmul FLOPs measured
    analytic_matmul: dict        # scope -> matmul FLOPs predicted
    wall_time: float


def module_matmul_flops(cfg, T):
    """Analytic per-scope matmul FLOPs of one module forward pass."""
    d, m, k, s = cfg.d, cfg.M, cfg.K, cfg.S
    n = T // s
    items = lc_gi_flops_per_layer(cfg, T)
    local = sum(v for key, v in items.items() if key.startswith("local_"))
    globl = sum(v for key, v in items.items() if not key.startswith("local_"))
    n_ctx = k + m
    return {
        "local": local,
        "global": globl,
        "broadcast_proj": 2 * T * d * d + 4 * (T + n * n_ctx) * d * d,
        "broadcast_attn": 4 * T * (s + n_ctx) * d,
    }


def scaling_probe(cfg: HiCIConfig, T_list, seed=0):
    """Run the module at each context with the FLOP counter armed.

    Uses one shared random parameter set and fresh random input per T.
    Doubling T at fixed S should double the measured total up to the
    constant-size global stage. Every T is checked before any runs.
    """
    for T in T_list:
        if T < 1 or T % cfg.S != 0:
            raise ConfigError(f"scaling context T={T} must be >= 1 and a multiple of S={cfg.S}")
    rng = np.random.default_rng(seed)
    params = init_hici_params(cfg, rng)
    rows = []
    for T in T_list:
        x = Tensor(rng.normal(size=(T, cfg.d)))
        with measure_flops() as counter:
            t0 = time.perf_counter()
            with no_grad():
                hici_forward(x, params, cfg)
            dt = time.perf_counter() - t0
            measured = {scope: counter.total(scope, "matmul")
                        for scope in ("local", "global", "broadcast_proj", "broadcast_attn")}
            total = counter.total()
        rows.append(ProbeRow(T=T, flops_total=total, flops_matmul=measured,
                             analytic_matmul=module_matmul_flops(cfg, T), wall_time=dt))
    return rows


# ---------------------------------------------------------------------------
# table formatting


def _fmt_natural(n):
    if n >= 1e6:
        return f"{n / 1e6:.1f}M"
    if n >= 1e3:
        return f"{n / 1e3:.1f}K"
    return str(int(n))


def _fmt_millions(n):
    return f"{n / 1e6:.1f}M"


def _fmt_base(n):
    return f"{n / 1e9:.2f}B"


def format_param_table(bd: ParamBreakdown, paper_layout=False):
    """Aligned text table of the parameter breakdown.

    With `paper_layout`, emit the published two-column (per-layer /
    all-layer) layout with its mixed K/M formatting for diffing.
    """
    p = bd.per_layer
    nl = bd.n_layers
    if paper_layout:
        rows = [
            ("Local Construction", "Memory slots (M)", p["slots"]),
            ("", "Cross-attention (Q/K/V/O)", p["local_attn"]),
            ("", "Subtotal", bd.local_per_layer),
            ("Global Integration", "Shared compression", p["compression"]),
            ("", "Global queries (K)", p["global_queries"]),
            ("", "Lightweight attention (Q/K/V/O)", p["lightweight_attn"]),
            ("", "Expansion layer", p["expansion"]),
            ("", "Subtotal", bd.global_per_layer),
        ]
        lines = [f"{'Module':<20} {'Component':<32} {'Per Layer':>10} {f'Total ({nl}L)':>12}"]
        for module, comp, count in rows:
            lines.append(f"{module:<20} {comp:<32} {_fmt_natural(count):>10} "
                         f"{_fmt_millions(count * nl):>12}")
        lines.append(f"{'Added Total':<20} {'':<32} {_fmt_natural(bd.per_layer_total):>10} "
                     f"{_fmt_millions(bd.total):>12}")
        lines.append(f"{'Base Model':<20} {'':<32} {'---':>10} {_fmt_base(bd.base_params):>12}")
        lines.append(f"{'Parameter Overhead':<20} {'':<32} {'---':>10} "
                     f"{100 * bd.overhead:>11.2f}%")
        return "\n".join(lines)
    lines = [f"{'component':<20} {'per_layer':>12} {'total':>14}"]
    for comp in PARAM_COMPONENTS:
        lines.append(f"{comp:<20} {p[comp]:>12} {p[comp] * nl:>14}")
    lines.append(f"{'local_subtotal':<20} {bd.local_per_layer:>12} {bd.local_per_layer * nl:>14}")
    lines.append(f"{'global_subtotal':<20} {bd.global_per_layer:>12} "
                 f"{bd.global_per_layer * nl:>14}")
    lines.append(f"{'added_total':<20} {bd.per_layer_total:>12} {bd.total:>14}")
    lines.append(f"{'base_params':<20} {'':>12} {int(bd.base_params):>14}")
    lines.append(f"{'overhead':<20} {'':>12} {100 * bd.overhead:>13.4f}%")
    return "\n".join(lines)


def param_table_csv(bd: ParamBreakdown):
    lines = ["component,per_layer,total"]
    for comp in PARAM_COMPONENTS:
        lines.append(f"{comp},{bd.per_layer[comp]},{bd.per_layer[comp] * bd.n_layers}")
    lines.append(f"added_total,{bd.per_layer_total},{bd.total}")
    lines.append(f"base_params,,{int(bd.base_params)}")
    lines.append(f"overhead_percent,,{100 * bd.overhead!r}")
    return "\n".join(lines) + "\n"


def format_flops_table(rows):
    """Aligned text table in TFLOPs, one row per (context, method)."""
    method_label = {"full": "Full Attn", "segmented": "Segmented", "hici": "Hierarchical"}
    header = (f"{'Context':>8} {'Method':<14} {'Attn':>8} {'Proj':>8} {'FFN':>8} "
              f"{'Others':>8} {'LC+GI':>8} {'Total':>9}")
    lines = [header]
    for row in rows:
        c = row.components
        lcgi = f"{c['LC+GI'] / 1e12:.1f}" if row.method == "hici" else "---"
        ctx = f"{row.context // 1024}K"
        lines.append(
            f"{ctx:>8} {method_label[row.method]:<14} {c['Attn'] / 1e12:>8.1f} "
            f"{c['Proj'] / 1e12:>8.1f} {c['FFN'] / 1e12:>8.1f} {c['Others'] / 1e12:>8.1f} "
            f"{lcgi:>8} {row.total / 1e12:>9.1f}")
    return "\n".join(lines)


def flops_table_csv(rows):
    lines = ["context,method,attn,proj,ffn,others,lc_gi,total"]
    for row in rows:
        c = row.components
        lines.append(f"{row.context},{row.method},{c['Attn']!r},{c['Proj']!r},"
                     f"{c['FFN']!r},{c['Others']!r},{c['LC+GI']!r},{row.total!r}")
    return "\n".join(lines) + "\n"


def format_probe_table(rows):
    lines = [f"{'T':>8} {'measured_total':>16} {'measured_matmul':>16} "
             f"{'analytic_matmul':>16} {'wall_s':>9}"]
    for r in rows:
        meas = sum(r.flops_matmul.values())
        ana = sum(r.analytic_matmul.values())
        lines.append(f"{r.T:>8} {r.flops_total:>16.0f} {meas:>16.0f} "
                     f"{ana:>16.0f} {r.wall_time:>9.4f}")
    for a, b in zip(rows, rows[1:]):
        if b.T == 2 * a.T:
            lines.append(f"ratio T={a.T} -> {b.T}: {b.flops_total / a.flops_total:.4f}")
    return "\n".join(lines)


def probe_table_csv(rows):
    # wall time stays out: counter totals are deterministic, timings are not
    lines = ["T,flops_total,flops_matmul,analytic_matmul"]
    for r in rows:
        lines.append(f"{r.T},{r.flops_total!r},{sum(r.flops_matmul.values())!r},"
                     f"{sum(r.analytic_matmul.values())!r}")
    return "\n".join(lines) + "\n"
