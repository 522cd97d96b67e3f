"""Plain-numpy forward pass of one attention module, `all_segments` scope.

Written from the paper's description, not from the package: no autodiff,
no exact summation, ordinary numpy reductions. The eval workload checks
the package's layer-0 module output against it.
"""

from __future__ import annotations

import numpy as np


def _softmax(z, visible=None):
    if visible is not None:
        z = np.where(visible, z, -np.inf)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _attention(q, k, v, n_heads, visible=None):
    dk = q.shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        cols = slice(h * dk, (h + 1) * dk)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dk)
        heads.append(_softmax(scores, visible) @ v[:, cols])
    return np.hstack(heads)


def _layer_norm(x, gain, bias, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def module_forward(x, params, cfg):
    """T x d input to T x d output: construct, integrate, broadcast."""
    if cfg.global_scope != "all_segments" or cfg.M == 0 or cfg.K == 0:
        raise ValueError("reference covers the all_segments scope with M, K > 0 only")
    lp, gp, bp = params.local, params.global_, params.broadcast
    segments = x.reshape(-1, cfg.S, cfg.d)

    local = [_attention(lp.slots.data @ lp.w_q.data, s @ lp.w_k.data, s @ lp.w_v.data, cfg.H)
             @ lp.w_o.data for s in segments]

    rows = np.vstack(local)
    mean = rows.mean(axis=0)
    pooled = np.stack([mean, rows.max(axis=0), rows.min(axis=0), rows.std(axis=0),
                       mean / max(np.linalg.norm(mean), 1e-12)])
    z = _layer_norm(pooled @ gp.compress_w1.data, gp.compress_g1.data, gp.compress_b1.data,
                    cfg.ln_eps)
    z = _layer_norm(z @ gp.compress_w2.data, gp.compress_g2.data, gp.compress_b2.data,
                    cfg.ln_eps)
    selected = _attention(gp.queries.data @ gp.w_q.data, z @ gp.w_k.data, z @ gp.w_v.data,
                          cfg.H)
    gate = np.logaddexp(0.0, gp.gate_raw.data[0])
    g_ctx = selected @ gp.w_o.data @ gp.expand.data * gate

    n_ctx = cfg.K + cfg.M
    visible = None
    if cfg.causal_segment_mask:
        visible = np.ones((cfg.S, n_ctx + cfg.S), dtype=bool)
        visible[:, n_ctx:] = np.tril(np.ones((cfg.S, cfg.S), dtype=bool))
    out = []
    for s, l_ctx in zip(segments, local):
        aug = np.vstack([g_ctx, l_ctx, s])
        out.append(_attention(s @ bp.w_q.data, aug @ bp.w_k.data, aug @ bp.w_v.data,
                              cfg.H, visible))
    return np.vstack(out)
