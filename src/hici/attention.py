"""The hierarchical attention module: construct, integrate, broadcast.

One layer maps a T x d sequence to a T x d sequence in three stages:

  1. local construction: the sequence is split into N = T/S contiguous
     segments; M shared learnable slot vectors cross-attend into each
     segment (in a d_b-wide bottleneck, H heads) to produce a local
     representation L_i of shape M x d per segment.
  2. global integration: all N*M local rows are pooled into five
     complementary column statistics (mean, max, min, population std,
     l2-normalized mean), compressed through a shared two-stage map
     d -> d_s -> d_b (each stage a projection followed by LayerNorm),
     then K learnable queries cross-attend over the five compressed rows
     and the result is expanded back to width d and scaled by a strictly
     positive softplus gate, giving the global context G of shape K x d.
  3. top-down broadcast: each segment attends over [G; L_i; X_i] with
     queries drawn from its own tokens only, H heads of width d/H, one
     softmax across all K+M+S visible positions, and no output
     projection (the host block applies its own).

M and K are fixed constants, so the bytes held by G and each L_i do not
grow with T. With the strictly causal scope the context presented to
segment i is built exclusively from positions before it: G_i pools
segments < i and the local block is L_{i-1} (zeros for segment 0), so
token t never sees information from positions > t.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .config import SCOPE_PRECEDING, HiCIConfig
from .tensor import (
    ShapeError,
    Tensor,
    attention,
    concat_rows,
    flop_scope,
    l2_normalize,
    layer_norm,
    matmul,
    no_grad,
    parameter,
    reduce_stats,
    reshape,
    scale,
    slice_rows,
    softplus,
)

# ---------------------------------------------------------------------------
# parameters


@dataclass
class LocalParams:
    """Slot queries and the bottleneck cross-attention of stage 1."""

    slots: Tensor   # M x d
    w_q: Tensor     # d x d_b
    w_k: Tensor     # d x d_b
    w_v: Tensor     # d x d_b
    w_o: Tensor     # d_b x d


@dataclass
class GlobalParams:
    """Shared compression, slot selection and gated expansion of stage 2."""

    compress_w1: Tensor  # d x d_s
    compress_g1: Tensor  # d_s
    compress_b1: Tensor  # d_s
    compress_w2: Tensor  # d_s x d_b
    compress_g2: Tensor  # d_b
    compress_b2: Tensor  # d_b
    queries: Tensor      # K x d_b
    w_q: Tensor          # d_b x d_b
    w_k: Tensor          # d_b x d_b
    w_v: Tensor          # d_b x d_b
    w_o: Tensor          # d_b x d_b
    expand: Tensor       # d_b x d
    gate_raw: Tensor     # scalar, gate = softplus(gate_raw) > 0


@dataclass
class BroadcastParams:
    """Query/key/value projections of stage 3 (no output projection)."""

    w_q: Tensor  # d x d
    w_k: Tensor  # d x d
    w_v: Tensor  # d x d


@dataclass
class HiCIParams:
    local: LocalParams
    global_: GlobalParams
    broadcast: BroadcastParams


def _xavier(rng, fan_in, fan_out):
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_hici_params(cfg: HiCIConfig, rng) -> HiCIParams:
    """Fresh parameters: slots/queries ~ N(0, 0.02), Xavier projections,
    unit LayerNorm affine, gate_raw = 0 (gate = ln 2)."""
    cfg.validate()
    d, d_b, d_s = cfg.d, cfg.d_b, cfg.d_s
    local = LocalParams(
        slots=parameter(rng.normal(0.0, 0.02, size=(cfg.M, d))),
        w_q=parameter(_xavier(rng, d, d_b)),
        w_k=parameter(_xavier(rng, d, d_b)),
        w_v=parameter(_xavier(rng, d, d_b)),
        w_o=parameter(_xavier(rng, d_b, d)),
    )
    global_ = GlobalParams(
        compress_w1=parameter(_xavier(rng, d, d_s)),
        compress_g1=parameter(np.ones(d_s)),
        compress_b1=parameter(np.zeros(d_s)),
        compress_w2=parameter(_xavier(rng, d_s, d_b)),
        compress_g2=parameter(np.ones(d_b)),
        compress_b2=parameter(np.zeros(d_b)),
        queries=parameter(rng.normal(0.0, 0.02, size=(cfg.K, d_b))),
        w_q=parameter(_xavier(rng, d_b, d_b)),
        w_k=parameter(_xavier(rng, d_b, d_b)),
        w_v=parameter(_xavier(rng, d_b, d_b)),
        w_o=parameter(_xavier(rng, d_b, d_b)),
        expand=parameter(_xavier(rng, d_b, d)),
        gate_raw=parameter(np.zeros(1)),
    )
    broadcast_p = BroadcastParams(
        w_q=parameter(_xavier(rng, d, d)),
        w_k=parameter(_xavier(rng, d, d)),
        w_v=parameter(_xavier(rng, d, d)),
    )
    return HiCIParams(local=local, global_=global_, broadcast=broadcast_p)


def named_tensors(params: HiCIParams, prefix=""):
    """Flat `{name: Tensor}` view in a stable order."""
    out = {}
    for group, obj in (("local", params.local), ("global", params.global_),
                       ("broadcast", params.broadcast)):
        for field in obj.__dataclass_fields__:
            out[f"{prefix}{group}.{field}"] = getattr(obj, field)
    return out


# ---------------------------------------------------------------------------
# attention-mass diagnostics


@dataclass
class AttnMassRecord:
    """Share of broadcast attention mass per (layer, head) on each region."""

    layer: int
    head: int
    frac_global: float
    frac_local: float
    frac_segment: float


class AttnMassAccumulator:
    """Sums broadcast attention probability mass per head and region.

    Fractions are normalized by the number of queries seen, so with
    uniform probabilities over K+M+S fully visible positions the global
    fraction is exactly K/(K+M+S).
    """

    def __init__(self, n_heads):
        self.n_heads = n_heads
        self.mass = np.zeros((n_heads, 3))
        self.n_queries = np.zeros(n_heads)

    def record(self, probs, n_global, n_local):
        """Add probabilities of shape (segments, heads, queries, keys)."""
        # fsum is exactly rounded, so the uniform-probe baseline comes out
        # as the correctly rounded K/(K+M+S) rather than one ulp off
        ctx = n_global + n_local
        for seg in probs:
            for head, p in enumerate(seg):
                self.mass[head, 0] += math.fsum(p[:, :n_global].ravel())
                self.mass[head, 1] += math.fsum(p[:, n_global:ctx].ravel())
                self.mass[head, 2] += math.fsum(p[:, ctx:].ravel())
                self.n_queries[head] += p.shape[0]

    def records(self, layer=0):
        out = []
        for h in range(self.n_heads):
            nq = self.n_queries[h]
            if nq == 0:
                raise ValueError("no attention mass recorded")
            out.append(AttnMassRecord(
                layer=layer,
                head=h,
                frac_global=float(self.mass[h, 0] / nq),
                frac_local=float(self.mass[h, 1] / nq),
                frac_segment=float(self.mass[h, 2] / nq),
            ))
        return out


_MASS_RECORDERS = []


@contextmanager
def record_attn_mass():
    """Yield a list that each `broadcast` in the block adds its AttnMassAccumulator to."""
    per_layer = []
    _MASS_RECORDERS.append(per_layer)
    try:
        yield per_layer
    finally:
        _MASS_RECORDERS.pop()


def uniform_queries(params: HiCIParams) -> HiCIParams:
    """`params` with a zero broadcast w_q, so every score is 0 and attention is uniform."""
    w_q = Tensor(np.zeros_like(params.broadcast.w_q.data))
    return replace(params, broadcast=replace(params.broadcast, w_q=w_q))


# ---------------------------------------------------------------------------
# stages


def partition(x, seg_len):
    """View T x d as N = T/S contiguous segments, shape (N, S, d)."""
    x_rows, d = x.data.shape
    if x_rows % seg_len != 0:
        raise ShapeError(
            f"sequence length T={x_rows} is not divisible by segment length S={seg_len}")
    return reshape(x, (x_rows // seg_len, seg_len, d))


def _stacked(t):
    """One (rows, w) block or a stack (N, rows, w), as a stack."""
    return t if t.data.ndim == 3 else reshape(t, (1,) + t.data.shape)


def _segment_stack(x_seg, cfg, where):
    """Check one S x d segment or a stack of them; return it as (N, S, d)."""
    if x_seg.data.ndim not in (2, 3) or x_seg.data.shape[-2:] != (cfg.S, cfg.d):
        raise ShapeError(
            f"{where}: segment shape {x_seg.data.shape} vs expected ({cfg.S}, {cfg.d})")
    return _stacked(x_seg)


def local_construct(x_seg, p: LocalParams, cfg: HiCIConfig):
    """Compress S x d segments into M x d each via bottleneck cross-attention.

    `x_seg` is one segment (S, d) or a stack (N, S, d); the result keeps
    the leading shape with M rows per segment.
    """
    x = _segment_stack(x_seg, cfg, "local_construct")
    n = x.data.shape[0]
    q = reshape(matmul(concat_rows([p.slots] * n), p.w_q), (n, cfg.M, cfg.d_b))
    attended = attention(q, matmul(x, p.w_k), matmul(x, p.w_v), cfg.H)
    return reshape(matmul(attended, p.w_o), x_seg.data.shape[:-2] + (cfg.M, cfg.d))


def pooled_stats(l_rows):
    """Five complementary column statistics of the stacked local rows.

    Rows of the result: mean, max, min, population std, l2-normalized
    mean. Exact-summation reductions make the outcome independent of row
    order, so any permutation of segments leaves the pool bit-identical.
    """
    mean, mx, mn, sd = reduce_stats(l_rows)
    d = l_rows.data.shape[1]
    return concat_rows([reshape(t, (1, d)) for t in (mean, mx, mn, sd, l2_normalize(mean))])


def integrate_global(l_list, p: GlobalParams, cfg: HiCIConfig):
    """Pool local representations into the K x d global context.

    `l_list` holds blocks of local slots, (M, d) per segment or (N, M, d)
    for N segments; all their rows are pooled together.
    """
    if not l_list:
        raise ValueError("integrate_global needs at least one segment of local slots")
    z = pooled_stats(reshape(concat_rows(l_list), (-1, cfg.d)))
    z1 = layer_norm(matmul(z, p.compress_w1), p.compress_g1, p.compress_b1, cfg.ln_eps)
    z2 = reshape(layer_norm(matmul(z1, p.compress_w2), p.compress_g2, p.compress_b2,
                            cfg.ln_eps), (1, 5, cfg.d_b))
    q = matmul(p.queries, p.w_q)
    selected = attention(q, matmul(z2, p.w_k), matmul(z2, p.w_v), cfg.H)
    expanded = matmul(matmul(reshape(selected, (cfg.K, cfg.d_b)), p.w_o), p.expand)
    return scale(expanded, softplus(p.gate_raw))


def _segment_visibility(n_ctx, seg_len):
    """Causal mask: context positions always visible, tokens only up to self."""
    vis = np.ones((seg_len, n_ctx + seg_len), dtype=bool)
    vis[:, n_ctx:] = np.tril(np.ones((seg_len, seg_len), dtype=bool))
    return vis


def broadcast(x_seg, l_ctx, g_ctx, p: BroadcastParams, cfg: HiCIConfig):
    """Context-conditioned update of each segment.

    Keys/values come from [G; L; X_i] (absent blocks are skipped), queries
    from the segment tokens only; H heads of width d/H under one softmax
    across all visible positions; no output projection. With the causal
    mask a query at offset t sees every context position but only segment
    positions <= t. `x_seg` is one segment (S, d) with (K, d) / (M, d)
    context blocks, or a stack (N, S, d) with (N, K, d) / (N, M, d)
    blocks; the result has the shape of `x_seg`.
    """
    x = _segment_stack(x_seg, cfg, "broadcast")
    ctx = [_stacked(t) for t in (g_ctx, l_ctx) if t is not None]
    n_global = g_ctx.data.shape[-2] if g_ctx is not None else 0
    n_local = l_ctx.data.shape[-2] if l_ctx is not None else 0
    aug = concat_rows(ctx + [x], axis=1) if ctx else x
    with flop_scope("broadcast_proj"):
        q = matmul(x, p.w_q)
        k = matmul(aug, p.w_k)
        v = matmul(aug, p.w_v)
    visible = (_segment_visibility(n_global + n_local, cfg.S)
               if cfg.causal_segment_mask else None)
    probe = None
    if _MASS_RECORDERS:
        acc = AttnMassAccumulator(cfg.H)
        _MASS_RECORDERS[-1].append(acc)
        probe = lambda probs: acc.record(probs, n_global, n_local)
    with flop_scope("broadcast_attn"):
        out = attention(q, k, v, cfg.H, visible=visible, probe=probe)
    return out if x_seg.data.ndim == 3 else reshape(out, x_seg.data.shape)


def hici_forward(x, params: HiCIParams, cfg: HiCIConfig):
    """Full three-stage pass: T x d in, T x d out, T a positive multiple of S.

    Each stage builds its graph once over all N segments. With
    global_scope='all_segments' one shared G pools every segment and
    each segment's own L_i sits in its context. The strictly causal
    'preceding_segments' scope gives segment i a G pooled from segments
    < i and the local block L_{i-1}; segment 0 receives zeros for both.
    """
    cfg.validate()
    if x.data.ndim != 2 or x.data.shape[1] != cfg.d:
        raise ShapeError(f"hici_forward: input shape {x.data.shape} vs width d={cfg.d}")
    if x.data.shape[0] == 0:
        raise ShapeError("hici_forward: empty input sequence (T=0)")
    segments = partition(x, cfg.S)
    n_seg = segments.data.shape[0]
    strict = cfg.global_scope == SCOPE_PRECEDING

    l_ctx = g_ctx = None
    if cfg.M > 0:
        with flop_scope("local"):
            l_ctx = local_construct(segments, params.local, cfg)
    if cfg.K > 0:
        with flop_scope("global"):
            if strict:
                g_list = [Tensor(np.zeros((cfg.K, cfg.d)))] + [
                    integrate_global([slice_rows(l_ctx, 0, i)], params.global_, cfg)
                    for i in range(1, n_seg)]
            else:
                g_list = [integrate_global([l_ctx], params.global_, cfg)] * n_seg
        g_ctx = reshape(concat_rows(g_list), (n_seg, cfg.K, cfg.d))
    if strict and l_ctx is not None:
        zeros_l = Tensor(np.zeros((1, cfg.M, cfg.d)))
        l_ctx = concat_rows([zeros_l, slice_rows(l_ctx, 0, n_seg - 1)])

    out = broadcast(segments, l_ctx, g_ctx, params.broadcast, cfg)
    return reshape(out, x.data.shape)


def collect_attn_mass(x, params: HiCIParams, cfg: HiCIConfig,
                      uniform_probe=False, layer=0):
    """Broadcast attention-mass fractions per head for one layer.

    Runs a gradient-free forward pass; per head, sums the probability
    mass landing on global / local / segment positions over every query
    of every segment and normalizes by the query count. The three
    fractions of a record sum to 1 up to softmax rounding.
    """
    if uniform_probe:
        params = uniform_queries(params)
    with no_grad(), record_attn_mass() as per_layer:
        hici_forward(x, params, cfg)
    return per_layer[0].records(layer=layer)
