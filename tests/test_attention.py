import dataclasses
import math

import numpy as np
import pytest

from hici.attention import (
    _MASS_RECORDERS,
    _segment_visibility,
    attn_mass_records,
    broadcast,
    collect_attn_mass,
    global_stage,
    hici_forward,
    init_hici_params,
    integrate_global,
    local_construct,
    named_tensors,
    partition,
    pooled_stats,
    record_attn_mass,
    uniform_queries,
)
from hici.config import SCOPE_ALL, SCOPE_PRECEDING, ConfigError, HiCIConfig
from hici.gradcheck import check_module_gradients
from hici.tensor import ShapeError, Tensor, attention, reshape, softplus

from oracles import reference_local_construct, reference_mha

CFG = HiCIConfig(S=4, M=2, K=2, H=2, d=16, d_b=8, d_s=4)


def _params(cfg=CFG, seed=0):
    return init_hici_params(cfg, np.random.default_rng(seed))


def _pool_all(blocks, p, cfg):
    """The all_segments G: one pool over every row of an (N, M, d) array of blocks."""
    return integrate_global(Tensor(blocks.reshape(1, -1, cfg.d)), p.global_, cfg).data[0]


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize("changes,fragment", [
    ({"d_s": 9}, "d_s < d_b < d"),
    ({"d_b": 10, "H": 4}, "d_b=10 not divisible"),
    ({"d": 20, "H": 8, "d_b": 16, "d_s": 8}, "d=20 not divisible"),
    ({"M": 0}, "K > 0 requires M > 0"),
    ({"M": -1}, "M and K must be >= 0"),
    ({"global_scope": "everything"}, "unknown global_scope"),
    ({"S": 0}, "S must be >= 1"),
])
def test_config_validation(changes, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("(", r"\(")):
        dataclasses.replace(CFG, **changes).validate()


# ---------------------------------------------------------------------------
# partition


def test_partition_two_segments():
    x = Tensor(np.arange(8.0 * 16).reshape(8, 16))
    segs = partition(x, 4).data
    assert segs.shape == (2, 4, 16)
    assert np.array_equal(segs[0], x.data[0:4])
    assert np.array_equal(segs[1], x.data[4:8])


def test_partition_identity():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 16)))
    segs = partition(x, 4).data
    assert segs.shape == (1, 4, 16)
    assert np.array_equal(segs[0], x.data)


def test_partition_divisibility_error_reports_T_and_S():
    with pytest.raises(ShapeError, match="T=7.*S=4"):
        partition(Tensor(np.zeros((7, 16))), 4)


# ---------------------------------------------------------------------------
# local construction


def test_local_construct_constant_segment_collapses():
    # identical keys make every softmax uniform, so slot values drop out
    p = _params()
    rng = np.random.default_rng(1)
    v = rng.normal(size=16)
    x = Tensor(np.tile(v, (1, 4, 1)))
    out = local_construct(x, p.local, CFG)
    expected = (v @ p.local.w_v.data) @ p.local.w_o.data
    assert np.abs(out.data - expected).max() <= 1e-12
    p.local.slots.data = rng.normal(size=p.local.slots.data.shape)
    out2 = local_construct(x, p.local, CFG)
    assert np.abs(out2.data - expected).max() <= 1e-12


def test_local_construct_single_key():
    cfg = dataclasses.replace(CFG, S=1, M=1)
    p = _params(cfg)
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(1, 1, 16)))
    out = local_construct(x, p.local, cfg)
    expected = (x.data @ p.local.w_v.data) @ p.local.w_o.data
    assert np.abs(out.data - expected).max() <= 1e-12


def test_local_construct_matches_reference():
    p = _params(seed=3)
    x = Tensor(np.random.default_rng(4).normal(size=(1, 4, 16)))
    out = local_construct(x, p.local, CFG)
    ref = reference_local_construct(
        x.data[0], p.local.slots.data, p.local.w_q.data, p.local.w_k.data,
        p.local.w_v.data, p.local.w_o.data, CFG.H)
    assert np.abs(out.data - ref).max() <= 1e-12


def test_local_attention_weights_sum_to_one():
    # route the slot attention through the mass hook: per slot and head,
    # everything lands in the "segment" region and must total 1
    p = _params(seed=5)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 16)))
    from hici.tensor import matmul

    q = matmul(p.local.slots, p.local.w_q)
    k = reshape(matmul(x, p.local.w_k), (1, CFG.S, CFG.d_b))
    v = reshape(matmul(x, p.local.w_v), (1, CFG.S, CFG.d_b))
    recs = []
    attention(q, k, v, CFG.H, probe=lambda probs: recs.extend(attn_mass_records(probs, 0, 0, 0)))
    assert len(recs) == CFG.H
    for rec in recs:
        assert abs(rec.frac_segment - 1.0) <= 1e-12


def test_local_construct_shape_error():
    p = _params()
    with pytest.raises(ShapeError, match="segment shape"):
        local_construct(Tensor(np.zeros((3, 16))), p.local, CFG)


# ---------------------------------------------------------------------------
# global integration


def test_pooled_stats_constant_rows():
    rng = np.random.default_rng(7)
    c = rng.normal(size=16)
    rows = Tensor(np.tile(c, (1, 6, 1)))
    z = pooled_stats(rows).data[0]
    assert np.abs(z[0] - c).max() <= 1e-12          # mean
    assert np.array_equal(z[1], c)                  # max
    assert np.array_equal(z[2], c)                  # min
    assert np.array_equal(z[3], np.zeros(16))       # std
    assert np.abs(z[4] - c / np.linalg.norm(c)).max() <= 1e-12


def test_gate_is_linear_and_ln2_at_zero():
    p = _params(seed=8)
    rng = np.random.default_rng(9)
    blocks = rng.normal(size=(3, CFG.M, CFG.d))
    # softplus(log(expm1(1))) is exactly 1.0, so this pass is the ungated output
    p.global_.gate_raw.data = np.array([math.log(math.expm1(1.0))])
    assert softplus(p.global_.gate_raw).data[0] == 1.0
    base = _pool_all(blocks, p, CFG)
    p.global_.gate_raw.data = np.zeros(1)
    gated = _pool_all(blocks, p, CFG)
    alpha = softplus(p.global_.gate_raw).data[0]
    assert abs(alpha - math.log(2.0)) <= 1e-16
    assert np.array_equal(gated, base * alpha)


def test_gate_positive_for_any_raw_value():
    p = _params()
    rng = np.random.default_rng(10)
    for _ in range(100):
        raw = rng.normal(scale=20.0)
        assert softplus(Tensor([raw])).data[0] > 0.0


def test_integrate_global_segment_permutation_invariant():
    p = _params(seed=11)
    rng = np.random.default_rng(12)
    blocks = rng.normal(size=(5, CFG.M, CFG.d))
    g = _pool_all(blocks, p, CFG)
    for _ in range(10):
        perm = rng.permutation(5)
        g2 = _pool_all(blocks[perm], p, CFG)
        assert np.array_equal(g, g2)


def test_global_selection_attention_normalized():
    # the K selection queries attend over the 5 compressed statistic rows;
    # their softmax must distribute exactly one unit of mass per query
    from hici.tensor import layer_norm, matmul

    p = _params(seed=29)
    rng = np.random.default_rng(30)
    l_cat = Tensor(rng.normal(size=(1, 3 * CFG.M, CFG.d)))
    z = reshape(pooled_stats(l_cat), (5, CFG.d))
    g = p.global_
    z1 = layer_norm(matmul(z, g.compress_w1), g.compress_g1, g.compress_b1, CFG.ln_eps)
    z2 = layer_norm(matmul(z1, g.compress_w2), g.compress_g2, g.compress_b2, CFG.ln_eps)
    z2 = reshape(z2, (1, 5, CFG.d_b))
    recs = []
    attention(matmul(g.queries, g.w_q), matmul(z2, g.w_k), matmul(z2, g.w_v),
              CFG.H, probe=lambda probs: recs.extend(attn_mass_records(probs, 0, 0, 0)))
    assert len(recs) == CFG.H
    for rec in recs:
        assert abs(rec.frac_segment - 1.0) <= 1e-12


def test_integrate_global_empty_input():
    p = _params()
    with pytest.raises(ShapeError, match=r"non-empty \(blocks, rows, d\)"):
        integrate_global(Tensor(np.zeros((0, CFG.M, CFG.d))), p.global_, CFG)


def test_strict_integrate_global_matches_all_segments_on_each_prefix():
    strict = dataclasses.replace(CFG, global_scope=SCOPE_PRECEDING)
    p = _params(seed=42)
    blocks = np.random.default_rng(43).normal(size=(6, CFG.M, CFG.d))
    segments = Tensor(np.zeros((6, CFG.S, CFG.d)))
    g = global_stage((segments, Tensor(blocks)), p.global_, strict)[2].data
    assert g.shape == (6, CFG.K, CFG.d)
    assert np.array_equal(g[0], np.zeros((CFG.K, CFG.d)))
    for i in range(1, 6):
        ref = _pool_all(blocks[:i], p, CFG)
        assert np.abs(g[i] - ref).max() <= 1e-12


def test_integrate_global_ignores_the_scope():
    # row i pools blocks[:i+1] under either scope; only global_stage wires the scope
    p = _params(seed=44)
    blocks = Tensor(np.random.default_rng(45).normal(size=(5, CFG.M, CFG.d)))
    outs = [integrate_global(blocks, p.global_, dataclasses.replace(CFG, global_scope=s)).data
            for s in (SCOPE_ALL, SCOPE_PRECEDING)]
    assert outs[0].shape == (5, CFG.K, CFG.d)
    assert outs[0].tobytes() == outs[1].tobytes()


@pytest.mark.parametrize("shape", [(CFG.S, CFG.d), (0, CFG.S, CFG.d)])
def test_stage_functions_take_only_non_empty_stacks(shape):
    p = _params()
    x = Tensor(np.zeros(shape))
    segments, blocks = r"\(N, 4, 16\)", r"\(blocks, rows, d\)"
    for call, expected in (
            (lambda: local_construct(x, p.local, CFG), segments),
            (lambda: broadcast(x, None, None, p.broadcast, CFG), segments),
            (lambda: pooled_stats(x), blocks),
            (lambda: integrate_global(x, p.global_, CFG), blocks)):
        with pytest.raises(ShapeError, match=expected):
            call()


def test_strict_scope_gradients_at_four_segments():
    cfg = dataclasses.replace(CFG, global_scope=SCOPE_PRECEDING, causal_segment_mask=True)
    errors = check_module_gradients(cfg, seed=0, n_segments=4)
    assert max(errors.values()) <= 1e-6, errors


def test_global_context_shape_and_size_constant_in_T():
    p = _params(seed=13)
    rng = np.random.default_rng(14)
    sizes = set()
    for n_seg in (4, 8, 16):
        g = _pool_all(rng.normal(size=(n_seg, CFG.M, CFG.d)), p, CFG)
        assert g.shape == (CFG.K, CFG.d)
        sizes.add(g.nbytes)
    assert len(sizes) == 1


# ---------------------------------------------------------------------------
# broadcast


def test_broadcast_without_context_equals_reference_mha():
    cfg = dataclasses.replace(CFG, S=8, M=0, K=0, causal_segment_mask=False)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = init_hici_params(cfg, rng)
        x = rng.normal(size=(8, cfg.d))
        out = hici_forward(Tensor(x), p, cfg)
        ref = reference_mha(x, p.broadcast.w_q.data, p.broadcast.w_k.data,
                            p.broadcast.w_v.data, cfg.H)
        assert np.abs(out.data - ref).max() <= 1e-12


def test_broadcast_causal_row0_ignores_later_tokens():
    # with the mask and fixed G/L inputs, row 0 sees context plus token 0
    # only; perturbing token 1 must not move it
    p = _params(seed=15)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(1, CFG.S, CFG.d))
    l_ctx = Tensor(rng.normal(size=(1, CFG.M, CFG.d)))
    g_ctx = Tensor(rng.normal(size=(1, CFG.K, CFG.d)))
    out = broadcast(Tensor(x), l_ctx, g_ctx, p.broadcast, CFG).data[0]
    x2 = x.copy()
    x2[0, 1] += 1.0
    out2 = broadcast(Tensor(x2), l_ctx, g_ctx, p.broadcast, CFG).data[0]
    assert np.array_equal(out[0], out2[0])
    assert not np.allclose(out[1], out2[1])


def test_broadcast_attention_mass_sums_to_one():
    p = _params(seed=17)
    rng = np.random.default_rng(18)
    for causal in (False, True):
        cfg = dataclasses.replace(CFG, causal_segment_mask=causal)
        x = Tensor(rng.normal(size=(2 * cfg.S, cfg.d)))
        for rec in collect_attn_mass(x, p, cfg):
            assert abs(rec.frac_global + rec.frac_local + rec.frac_segment - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# full forward


@pytest.mark.parametrize("n_seg", [1, 2, 4])
def test_forward_shape(n_seg):
    p = _params(seed=19)
    x = Tensor(np.random.default_rng(20).normal(size=(n_seg * CFG.S, CFG.d)))
    assert hici_forward(x, p, CFG).data.shape == (n_seg * CFG.S, CFG.d)


def test_forward_single_segment_no_slots_equals_full_attention():
    cfg = dataclasses.replace(CFG, S=8, M=0, K=0, causal_segment_mask=False)
    rng = np.random.default_rng(21)
    p = init_hici_params(cfg, rng)
    x = rng.normal(size=(8, cfg.d))
    ref = reference_mha(x, p.broadcast.w_q.data, p.broadcast.w_k.data,
                        p.broadcast.w_v.data, cfg.H)
    assert np.abs(hici_forward(Tensor(x), p, cfg).data - ref).max() <= 1e-12


def test_forward_segment_swap_is_exact():
    p = _params(seed=22)
    rng = np.random.default_rng(23)
    s = CFG.S
    x = rng.normal(size=(4 * s, CFG.d))
    out = hici_forward(Tensor(x), p, CFG).data
    xs = x.copy()
    xs[0:s], xs[2 * s:3 * s] = x[2 * s:3 * s].copy(), x[0:s].copy()
    swapped = hici_forward(Tensor(xs), p, CFG).data
    expected = out.copy()
    expected[0:s], expected[2 * s:3 * s] = out[2 * s:3 * s].copy(), out[0:s].copy()
    assert np.array_equal(swapped, expected)


def test_forward_strict_scope_is_causal():
    cfg = dataclasses.replace(CFG, causal_segment_mask=True,
                              global_scope=SCOPE_PRECEDING)
    p = _params(seed=24)
    rng = np.random.default_rng(25)
    x = rng.normal(size=(3 * cfg.S, cfg.d))
    base = hici_forward(Tensor(x), p, cfg).data
    for t in (2, 5, 9):
        x2 = x.copy()
        x2[t] += 0.7
        pert = hici_forward(Tensor(x2), p, cfg).data
        assert np.array_equal(base[:t], pert[:t])
        assert not np.allclose(base[t], pert[t])


def test_forward_strict_scope_segment0_gets_zero_context():
    # segment 0 has nothing before it: its broadcast context is all zeros
    cfg = dataclasses.replace(CFG, global_scope=SCOPE_PRECEDING)
    p = _params(seed=31)
    rng = np.random.default_rng(32)
    x = rng.normal(size=(2 * cfg.S, cfg.d))
    out = hici_forward(Tensor(x), p, cfg).data
    seg0 = broadcast(Tensor(x[None, :cfg.S]),
                     Tensor(np.zeros((1, cfg.M, cfg.d))),
                     Tensor(np.zeros((1, cfg.K, cfg.d))),
                     p.broadcast, cfg).data[0]
    assert np.array_equal(out[:cfg.S], seg0)


def test_forward_rejects_bad_width():
    p = _params()
    with pytest.raises(ShapeError, match="width"):
        hici_forward(Tensor(np.zeros((8, 15))), p, CFG)


def test_forward_rejects_indivisible_length():
    p = _params()
    with pytest.raises(ShapeError, match="not divisible"):
        hici_forward(Tensor(np.zeros((6, 16))), p, CFG)


@pytest.mark.parametrize("m,k", [(0, 0), (2, 0), (2, 2)])
def test_forward_rejects_empty_sequence(m, k):
    cfg = dataclasses.replace(CFG, M=m, K=k)
    p = _params(cfg)
    with pytest.raises(ShapeError, match="T=0"):
        hici_forward(Tensor(np.zeros((0, 16))), p, cfg)


def _graph_nodes(out):
    seen = {id(out)}
    stack = [out]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize("scope", [SCOPE_ALL, SCOPE_PRECEDING])
def test_forward_graph_size_does_not_grow_with_T(scope):
    # every stage runs over all segments (and the strict scope's pooling
    # over all prefixes) at once, so the autodiff graph has the same nodes
    # at any segment count
    cfg = dataclasses.replace(CFG, global_scope=scope)
    p = _params(cfg, seed=33)
    rng = np.random.default_rng(34)
    counts = [_graph_nodes(hici_forward(Tensor(rng.normal(size=(n * cfg.S, cfg.d))), p, cfg))
              for n in (4, 16)]
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# attention-mass statistics


def test_uniform_probe_baselines_exact():
    for s, total in ((1024, 1036), (2048, 2060)):
        cfg = dataclasses.replace(CFG, S=s, M=8, K=4, H=2, causal_segment_mask=False)
        rng = np.random.default_rng(26)
        p = init_hici_params(cfg, rng)
        x = Tensor(rng.normal(size=(s, cfg.d)))
        for rec in collect_attn_mass(x, uniform_queries(p), cfg):
            assert float(rec.frac_global) == 4.0 / total
            assert abs(rec.frac_global + rec.frac_local + rec.frac_segment - 1.0) <= 1e-9


def test_mass_records_have_layer_and_head_indices():
    p = _params(seed=27)
    x = Tensor(np.random.default_rng(28).normal(size=(CFG.S, CFG.d)))
    recs = collect_attn_mass(x, p, CFG)
    assert [r.head for r in recs] == list(range(CFG.H))
    assert all(r.layer == 0 for r in recs)


@pytest.mark.parametrize("scope", [SCOPE_ALL, SCOPE_PRECEDING])
def test_uniform_baseline_under_causal_mask_matches_closed_form(scope):
    # query t of a segment sees K + M context positions and tokens 0..t
    cfg = dataclasses.replace(CFG, S=16, M=3, K=2, causal_segment_mask=True,
                              global_scope=scope)
    rng = np.random.default_rng(35)
    p = init_hici_params(cfg, rng)
    x = Tensor(rng.normal(size=(3 * cfg.S, cfg.d)))
    expected = math.fsum(cfg.K / (cfg.K + cfg.M + t + 1) for t in range(cfg.S)) / cfg.S
    for rec in collect_attn_mass(x, uniform_queries(p), cfg):
        assert abs(rec.frac_global - expected) <= 1e-15


def test_mass_fractions_do_not_depend_on_segment_order():
    # all_segments is segment-equivariant, so permuting the segments only
    # permutes the probabilities; one fsum per head and region over all of
    # them then gives bit-identical fractions
    cfg = dataclasses.replace(CFG, global_scope=SCOPE_ALL)
    n_seg = 16
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        p = _params(cfg, seed=seed)
        x = rng.normal(size=(n_seg, cfg.S, cfg.d))
        moved = x[rng.permutation(n_seg)]
        base = collect_attn_mass(Tensor(x.reshape(-1, cfg.d)), p, cfg)
        assert collect_attn_mass(Tensor(moved.reshape(-1, cfg.d)), p, cfg) == base


def test_recorder_records_only_inside_its_block():
    p = _params(seed=36)
    x = Tensor(np.random.default_rng(37).normal(size=(2 * CFG.S, CFG.d)))
    with record_attn_mass() as per_layer:
        hici_forward(x, p, CFG)
    assert len(per_layer) == 1
    hici_forward(x, p, CFG)
    assert len(per_layer) == 1


def test_recorder_stack_is_empty_after_an_exception():
    p = _params(seed=38)
    x = Tensor(np.random.default_rng(39).normal(size=(2 * CFG.S, CFG.d)))
    with pytest.raises(RuntimeError):
        with record_attn_mass() as per_layer:
            hici_forward(x, p, CFG)
            raise RuntimeError("inside the block")
    assert _MASS_RECORDERS == []
    hici_forward(x, p, CFG)
    assert len(per_layer) == 1


# ---------------------------------------------------------------------------
# parameters


def test_named_tensors_covers_all_groups():
    p = _params()
    names = named_tensors(p)
    assert len(names) == 21
    assert "local.slots" in names and "global.gate_raw" in names
    assert "broadcast.w_v" in names
    for name, t in names.items():
        assert t.requires_grad, name


def test_init_shapes():
    p = _params()
    assert p.local.slots.data.shape == (CFG.M, CFG.d)
    assert p.local.w_o.data.shape == (CFG.d_b, CFG.d)
    assert p.global_.compress_w1.data.shape == (CFG.d, CFG.d_s)
    assert p.global_.compress_w2.data.shape == (CFG.d_s, CFG.d_b)
    assert p.global_.queries.data.shape == (CFG.K, CFG.d_b)
    assert p.global_.expand.data.shape == (CFG.d_b, CFG.d)
    assert p.global_.gate_raw.data.shape == (1,)
    assert p.broadcast.w_q.data.shape == (CFG.d, CFG.d)


def test_segment_visibility_is_built_once_and_read_only():
    vis = _segment_visibility(3, 4)
    assert _segment_visibility(3, 4) is vis
    assert not vis.flags.writeable
    with pytest.raises(ValueError):
        vis[0, 0] = False
    tokens = np.tril(np.ones((4, 4), dtype=bool))
    assert np.array_equal(vis, np.concatenate([np.ones((4, 3), dtype=bool), tokens], axis=1))
