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

Every stage function takes one stack: `local_construct` and `broadcast`
the (N, S, d) segments, `pooled_stats` a (B, R, d) stack of local
blocks, pooling blocks[:i+1] into row i whatever the scope, and
`integrate_global` the (B, 5, d) statistics of those pools. Two stages
know the scope. The construct stage, `local_stage`, hands
`pooled_stats` all N*M rows as one block or the N-1 earlier blocks, and
shifts L by one segment; `global_stage` shapes G into one context block
per segment. Pooling reads no parameter and runs in the construct stage,
so a gradient probe of a global parameter starts from the pooled
statistics.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

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
    prefix_stats,
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


def named_tensors(tree, prefix=""):
    """Flat `{name: Tensor}` view of a parameter dataclass, walked in field order.

    Names join field names (`global_` as `global`) and list indices with
    dots after `prefix`: `local.slots`, or `layers.0.hici.local.slots` in a host.
    """
    items = (enumerate(tree) if isinstance(tree, list)
             else ((f.name.rstrip("_"), getattr(tree, f.name)) for f in fields(tree)))
    out = {}
    for key, value in items:
        if isinstance(value, Tensor):
            out[f"{prefix}{key}"] = value
        else:
            out.update(named_tensors(value, f"{prefix}{key}."))
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


def attn_mass_records(probs, n_global, n_local, layer):
    """The H AttnMassRecords of one broadcast's probabilities (segments, heads, queries, keys).

    Per head and region, one exactly rounded fsum over every query of every
    segment, divided by the query count; the result does not depend on the
    segment order. With uniform probabilities over K+M+S fully visible
    positions and one segment the global fraction is exactly K/(K+M+S).
    """
    n_seg, n_heads, n_queries, _ = probs.shape
    ctx = n_global + n_local
    regions = (slice(0, n_global), slice(n_global, ctx), slice(ctx, None))
    return [AttnMassRecord(layer, head, *(math.fsum(probs[:, head, :, r].ravel())
                                          / (n_seg * n_queries) for r in regions))
            for head in range(n_heads)]


_MASS_RECORDERS = []


@contextmanager
def record_attn_mass():
    """Yield a list that each `broadcast` in the block appends its H AttnMassRecords to.

    Entry i of the list is the i-th broadcast call's record list, and its
    records carry layer=i (the host's layer index in an `lm_forward`).
    """
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


def _check_segment_stack(x, cfg, where):
    """Check that `x` is a non-empty (N, S, d) stack of segments."""
    if x.data.ndim != 3 or x.data.shape[0] == 0 or x.data.shape[1:] != (cfg.S, cfg.d):
        raise ShapeError(f"{where}: segment shape {x.data.shape} vs expected stack "
                         f"(N, {cfg.S}, {cfg.d}) with N >= 1")


def local_construct(x, p: LocalParams, cfg: HiCIConfig):
    """Compress each segment of an (N, S, d) stack into M slot rows: (N, M, d)."""
    _check_segment_stack(x, cfg, "local_construct")
    n = x.data.shape[0]
    q = reshape(matmul(concat_rows([p.slots] * n), p.w_q), (n, cfg.M, cfg.d_b))
    attended = attention(q, matmul(x, p.w_k), matmul(x, p.w_v), cfg.H)
    return matmul(attended, p.w_o)


def pooled_stats(blocks):
    """Five complementary column statistics of the rows of blocks[:i+1], every i.

    Rows: mean, max, min, population std, l2-normalized mean; blocks
    (B, R, d) give (B, 5, d), the input of `integrate_global`. Exact sums
    make any permutation of blocks leave the last row bit-identical. No
    parameter enters, so `local_stage` runs it, before the global group.
    """
    stats = prefix_stats(blocks)
    return concat_rows([stats, l2_normalize(slice_rows(stats, 0, 1, axis=1))], axis=1)


def integrate_global(pools, p: GlobalParams, cfg: HiCIConfig):
    """Global contexts of a (B, 5, d) stack of `pooled_stats` rows: (B, K, d).

    Row i of the output reads only row i of `pools`; every stage runs
    once over all B pools.
    """
    if pools.data.ndim != 3 or pools.data.shape[0] == 0 or pools.data.shape[1:] != (5, cfg.d):
        raise ShapeError(f"integrate_global: statistics shape {pools.data.shape} vs expected "
                         f"stack (pools, 5, {cfg.d}) with pools >= 1")
    n_pools = pools.data.shape[0]
    # The compression runs on 2-D (5B, d) views, not on the (B, 5, d) stack:
    # OpenBLAS rounds the stacked backward product g @ W.T differently from the
    # 2-D one at B = 62 and 63, so the stack would move strict training bits.
    z1 = layer_norm(matmul(reshape(pools, (5 * n_pools, cfg.d)), p.compress_w1),
                    p.compress_g1, p.compress_b1, cfg.ln_eps)
    z2 = reshape(layer_norm(matmul(z1, p.compress_w2), p.compress_g2, p.compress_b2,
                            cfg.ln_eps), (n_pools, 5, cfg.d_b))
    q = matmul(p.queries, p.w_q)
    selected = attention(q, matmul(z2, p.w_k), matmul(z2, p.w_v), cfg.H)
    expanded = matmul(matmul(reshape(selected, (n_pools * cfg.K, cfg.d_b)), p.w_o), p.expand)
    return reshape(scale(expanded, softplus(p.gate_raw)), (n_pools, cfg.K, cfg.d))


@functools.lru_cache(maxsize=None)
def _segment_hidden(n_ctx, seg_len):
    """The causal mask as the (S, n_ctx + S) entries it hides: the tokens after each query.

    Valid by construction, as every query sees every context row and
    itself. Built once per (n_ctx, seg_len) and shared, so read-only.
    """
    hidden = np.triu(np.ones((seg_len, n_ctx + seg_len), dtype=bool), k=n_ctx + 1)
    hidden.flags.writeable = False
    return hidden


def broadcast(x, l_ctx, g_ctx, p: BroadcastParams, cfg: HiCIConfig):
    """Context-conditioned update of each segment of an (N, S, d) stack.

    Keys/values of segment i come from [G_i; L_i; X_i], rows of the
    (N, K, d) / (N, M, d) context stacks (None when absent); queries
    from the segment tokens only; H heads of width d/H under one softmax
    across all visible positions; no output projection. With the causal
    mask a query at offset t sees every context position but only segment
    positions <= t (`_segment_hidden`, checked where it is built, not per
    call). The result is (N, S, d).
    """
    _check_segment_stack(x, cfg, "broadcast")
    ctx = [t for t in (g_ctx, l_ctx) if t is not None]
    n_global = g_ctx.data.shape[1] if g_ctx is not None else 0
    n_local = l_ctx.data.shape[1] if l_ctx is not None else 0
    aug = concat_rows(ctx + [x], axis=1) if ctx else x
    with flop_scope("broadcast_proj"):
        q = matmul(x, p.w_q)
        k = matmul(aug, p.w_k)
        v = matmul(aug, p.w_v)
    hidden = _segment_hidden(n_global + n_local, cfg.S) if cfg.causal_segment_mask else None
    probe = None
    if _MASS_RECORDERS:
        per_layer = _MASS_RECORDERS[-1]
        probe = lambda probs: per_layer.append(
            attn_mass_records(probs, n_global, n_local, len(per_layer)))
    with flop_scope("broadcast_attn"):
        return attention(q, k, v, cfg.H, hidden=hidden, probe=probe)


def local_stage(x, p: LocalParams, cfg: HiCIConfig):
    """Stage 1, construct: T x d in, (segments (N, S, d), L_ctx, Z) out.

    With 'all_segments' Z pools every segment's slots as one block (1, 5, d)
    and each segment keeps its own L_i. The strictly causal
    'preceding_segments' scope pools the N-1 earlier blocks, row i of Z
    for segments <= i, and gives segment i the local block L_{i-1}, zeros
    for segment 0. L_ctx is None when M = 0; Z is None when there is no
    global context (K = 0, or one segment in the strict scope). Pooling
    reads no parameter and runs under the "global" FLOP scope.
    """
    if x.data.ndim != 2 or x.data.shape[1] != cfg.d:
        raise ShapeError(f"hici_forward: input shape {x.data.shape} vs width d={cfg.d}")
    if x.data.shape[0] == 0:
        raise ShapeError("hici_forward: empty input sequence (T=0)")
    segments = partition(x, cfg.S)
    if cfg.M == 0:   # hence K = 0: no context at all
        return segments, None, None
    with flop_scope("local"):
        l_ctx = local_construct(segments, p, cfg)
    n_seg = segments.data.shape[0]
    strict = cfg.global_scope == SCOPE_PRECEDING
    pooled = slice_rows(l_ctx, 0, n_seg - 1) if strict else l_ctx   # the blocks Z pools
    z = None
    if cfg.K > 0 and pooled.data.shape[0] > 0:
        with flop_scope("global"):
            z = pooled_stats(pooled if strict else reshape(l_ctx, (1, n_seg * cfg.M, cfg.d)))
    if strict:   # segment i reads L_{i-1}, segment 0 zeros
        l_ctx = concat_rows([Tensor(np.zeros((1, cfg.M, cfg.d))), pooled])
    return segments, l_ctx, z


def global_stage(state, p: GlobalParams, cfg: HiCIConfig):
    """Stage 2, integrate: (segments, L_ctx, Z) in, (segments, L_ctx, G_ctx) out, one G per segment.

    With 'all_segments' the one G is repeated for each segment. The
    strictly causal 'preceding_segments' scope gives segment i the G of
    row i-1 of Z, and segment 0 zeros.
    """
    segments, l_ctx, z = state
    if cfg.K == 0:
        return segments, l_ctx, None
    if cfg.global_scope != SCOPE_PRECEDING:
        with flop_scope("global"):
            g = integrate_global(z, p, cfg)
        return segments, l_ctx, concat_rows([g] * segments.data.shape[0])
    g_ctx = Tensor(np.zeros((1, cfg.K, cfg.d)))
    if z is not None:
        with flop_scope("global"):
            g_ctx = concat_rows([g_ctx, integrate_global(z, p, cfg)])
    return segments, l_ctx, g_ctx


def broadcast_stage(state, p: BroadcastParams, cfg: HiCIConfig):
    """Stage 3, broadcast: (segments, L_ctx, G_ctx) in, T x d out."""
    segments, l_ctx, g_ctx = state
    n_seg, seg_len, d = segments.data.shape
    return reshape(broadcast(segments, l_ctx, g_ctx, p, cfg), (n_seg * seg_len, d))


def hici_stages(params: HiCIParams, cfg: HiCIConfig):
    """`hici_forward` as its three stages in order, each a (parameters, stage) pair.

    Each stage maps the output of the one before it (x for the first) to
    its own and reads only its own parameter group, so changing a group
    leaves the outputs of the earlier stages as they were.
    The parameters of a stage are a live view of its group's fields, built
    without copying them into a tuple on every forward.
    """
    local, global_, broadcast_p = params.local, params.global_, params.broadcast
    return [
        (vars(local).values(), lambda x: local_stage(x, local, cfg)),
        (vars(global_).values(), lambda s: global_stage(s, global_, cfg)),
        (vars(broadcast_p).values(), lambda s: broadcast_stage(s, broadcast_p, cfg)),
    ]


def run_stages(stages, state):
    """Feed `state` through the stages of (parameters, stage) pairs in order."""
    for _, stage in stages:
        state = stage(state)
    return state


def hici_forward(x, params: HiCIParams, cfg: HiCIConfig):
    """Full pass of the three stages: T x d in, T x d out, T a positive multiple of S.

    Each stage builds its graph once over all N segments; `local_stage` and
    `global_stage` wire the context of each segment for the configured scope.
    """
    return run_stages(hici_stages(params, cfg), x)


def collect_attn_mass(x, params: HiCIParams, cfg: HiCIConfig):
    """Broadcast attention-mass fractions per head for one layer.

    Runs a gradient-free forward pass; per head, sums the probability
    mass landing on global / local / segment positions over every query
    of every segment and normalizes by the query count. The three
    fractions of a record sum to 1 up to softmax rounding. For the
    uniform baseline pass `uniform_queries(params)`.
    """
    with no_grad(), record_attn_mass() as per_layer:
        hici_forward(x, params, cfg)
    return per_layer[0]
