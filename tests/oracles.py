"""Independent reference implementations the package is tested against.

Everything here is deliberately written from scratch in plain numpy
(loops where that is the most obviously-correct form) and must stay
decoupled from the package internals.
"""

import numpy as np


def matmul_triple_loop(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def two_pass_stats(a):
    """Column mean/max/min/population-std via the naive two-pass formula."""
    r = a.shape[0]
    mean = a.sum(axis=0) / r
    var = ((a - mean) ** 2).sum(axis=0) / r
    return mean, a.max(axis=0), a.min(axis=0), np.sqrt(var)


def _attention_heads(q, k, v, n_heads, visible=None):
    """Attention of one block, one contiguous head slice at a time; no out proj."""
    dk = q.shape[1] // n_heads
    out = np.zeros((q.shape[0], v.shape[1]))
    for h in range(n_heads):
        cols = slice(h * dk, (h + 1) * dk)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dk)
        if visible is not None:
            scores = np.where(visible, scores, -np.inf)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        out[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
    return out


def _layer_norm(x, gain, bias, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def reference_mha(x, w_q, w_k, w_v, n_heads, causal=False):
    """Plain multi-head self-attention, contiguous head split, no out proj."""
    visible = np.tril(np.ones((x.shape[0],) * 2, dtype=bool)) if causal else None
    return _attention_heads(x @ w_q, x @ w_k, x @ w_v, n_heads, visible)


def reference_local_construct(x_seg, slots, w_q, w_k, w_v, w_o, n_heads):
    """Slot cross-attention into one segment, written independently."""
    return _attention_heads(slots @ w_q, x_seg @ w_k, x_seg @ w_v, n_heads) @ w_o


def reference_hici_forward(x, w, cfg):
    """One module pass, T x d -> T x d, segment by segment and head by head.

    `w` maps parameter names ("local.slots", "global.w_q", ...) to arrays;
    `cfg` gives S, M, K, H, the widths, `ln_eps`, `causal_segment_mask` and
    `global_scope`. Segment i attends over [G_i; L_i; X_i]. With
    "all_segments" G_i pools the slot rows of every segment and L_i is
    segment i's own; with "preceding_segments" G_i pools segments < i and
    L_i is segment i-1's, both zeros for segment 0. Pooled statistics are
    the two-pass ones of `two_pass_stats`.
    """
    seg_len, n_local, n_global, d = cfg.S, cfg.M, cfg.K, cfg.d
    strict = cfg.global_scope == "preceding_segments"
    segments = [x[i:i + seg_len] for i in range(0, x.shape[0], seg_len)]
    local = [_attention_heads(w["local.slots"] @ w["local.w_q"], s @ w["local.w_k"],
                              s @ w["local.w_v"], cfg.H) @ w["local.w_o"]
             for s in segments] if n_local else []

    def global_context(rows):
        mean, mx, mn, std = two_pass_stats(rows)
        pooled = np.stack([mean, mx, mn, std, mean / max(np.sqrt(mean @ mean), 1e-12)])
        z = _layer_norm(pooled @ w["global.compress_w1"], w["global.compress_g1"],
                        w["global.compress_b1"], cfg.ln_eps)
        z = _layer_norm(z @ w["global.compress_w2"], w["global.compress_g2"],
                        w["global.compress_b2"], cfg.ln_eps)
        selected = _attention_heads(w["global.queries"] @ w["global.w_q"],
                                    z @ w["global.w_k"], z @ w["global.w_v"], cfg.H)
        gate = np.logaddexp(0.0, w["global.gate_raw"][0])
        return selected @ w["global.w_o"] @ w["global.expand"] * gate

    n_ctx = n_global + n_local
    visible = None
    if cfg.causal_segment_mask:
        visible = np.ones((seg_len, n_ctx + seg_len), dtype=bool)
        visible[:, n_ctx:] = np.tril(np.ones((seg_len, seg_len), dtype=bool))
    out = []
    for i, s in enumerate(segments):
        ctx = []
        if n_global:
            if not strict:
                ctx.append(global_context(np.vstack(local)))
            else:
                ctx.append(global_context(np.vstack(local[:i])) if i
                           else np.zeros((n_global, d)))
        if n_local:
            if not strict:
                ctx.append(local[i])
            else:
                ctx.append(local[i - 1] if i else np.zeros((n_local, d)))
        aug = np.vstack(ctx + [s])
        out.append(_attention_heads(s @ w["broadcast.w_q"], aug @ w["broadcast.w_k"],
                                    aug @ w["broadcast.w_v"], cfg.H, visible))
    return np.vstack(out)
