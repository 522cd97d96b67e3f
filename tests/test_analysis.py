import dataclasses

import numpy as np
import pytest

from hici.analysis import (
    ACCOUNTING_PRESETS,
    PAPER_CONTEXTS,
    CostBreakdown,
    ModelDims,
    count_flops,
    count_params,
    flops_table,
    format_flops_table,
    format_param_table,
    module_matmul_flops,
    param_census,
    scaling_probe,
)
from hici.attention import init_hici_params
from hici.config import HiCIConfig

P7B = ACCOUNTING_PRESETS["llama2-7b"]


# ---------------------------------------------------------------------------
# parameter counts


def test_param_counts_llama2_7b_exact():
    bd = count_params(P7B.cfg, P7B.dims.n_layers, P7B.base_params)
    assert bd.per_layer == {
        "slots": 32768,
        "local_attn": 8388608,
        "compression": 591104,
        "global_queries": 2048,
        "lightweight_attn": 1048576,
        "expansion": 2097153,
    }
    assert bd.local_per_layer == 8421376
    assert bd.global_per_layer == 3738881
    assert bd.per_layer_total == 12160257
    assert bd.total == 389128224
    assert abs(100 * bd.overhead - 5.46) <= 0.01


def test_param_table_displays_published_values():
    bd = count_params(P7B.cfg, P7B.dims.n_layers, P7B.base_params)
    table = format_param_table(bd, paper_layout=True)
    for token in ("32.8K", "8.4M", "269.5M", "591.1K", "2.0K", "0.1M",
                  "1.0M", "33.6M", "2.1M", "67.1M", "3.7M", "119.6M",
                  "12.2M", "389.1M", "6.74B", "5.46%"):
        assert token in table, token


def test_param_count_degenerate_is_zero():
    cfg = HiCIConfig(S=1, M=0, K=0, H=1, d=128, d_b=0, d_s=0)
    bd = count_params(cfg, 32, 1e9)
    assert bd.total == 0
    assert bd.overhead == 0.0
    assert count_params(cfg, 1, 0.0).overhead == 0.0


def test_census_matches_formula_for_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = int(rng.choice([1, 2, 4]))
        d_b = h * int(rng.integers(2, 6))
        d_s = int(rng.integers(1, d_b))
        d = h * int(rng.integers(max(2, d_b // h + 1), 12))
        if not d_s < d_b < d:
            continue
        cfg = HiCIConfig(S=int(rng.integers(1, 6)), M=int(rng.integers(1, 5)),
                         K=int(rng.integers(1, 4)), H=h, d=d, d_b=d_b, d_s=d_s)
        params = init_hici_params(cfg, rng)
        census = param_census(params)
        bd = count_params(cfg, 1, 0.0)
        for comp, count in bd.per_layer.items():
            assert census[comp] == count, (comp, cfg)
        assert census["broadcast"] == 3 * d * d


def test_census_counts_13b_dims():
    p = ACCOUNTING_PRESETS["llama2-13b"]
    bd = count_params(p.cfg, p.dims.n_layers, p.base_params)
    # d=5120, d_b=640: local 4*d*d_b etc., 40 layers
    assert bd.per_layer["local_attn"] == 4 * 5120 * 640
    assert bd.per_layer["lightweight_attn"] == 4 * 640 * 640
    assert bd.n_layers == 40


# ---------------------------------------------------------------------------
# FLOPs model


# published forward-pass table, TFLOPs, one decimal place
FULL_TABLE = {
    8192: (35.2, 35.2, 70.9, 2.1, 143.4),
    16384: (140.7, 70.4, 141.8, 4.3, 357.2),
    32768: (562.9, 140.7, 283.7, 8.6, 996.0),
    65536: (2251.8, 281.5, 567.3, 17.2, 3117.8),
    102400: (5497.6, 439.8, 886.5, 26.8, 6850.7),
}
SEG_ATTN = {8192: 8.8, 16384: 35.2, 32768: 140.7, 65536: 562.9, 102400: 1374.4}
SEG_TOTAL = {8192: 117.0, 16384: 251.7, 32768: 573.7, 65536: 1429.0, 102400: 2727.5}
HICI_TOTAL = {8192: 119.9, 16384: 257.3, 32768: 585.0, 65536: 1451.4, 102400: 2762.6}


def _close_to_displayed(computed_tflops, displayed):
    # displayed values carry one decimal; match within that half-ulp
    return abs(computed_tflops - displayed) <= 0.05


@pytest.mark.parametrize("T", sorted(FULL_TABLE))
def test_full_attention_columns_match_published(T):
    cfg = dataclasses.replace(P7B.cfg, S=T // 4)
    bd = count_flops("full", T, P7B.dims, cfg)
    attn, proj, ffn, others, total = FULL_TABLE[T]
    assert _close_to_displayed(bd.components["Attn"] / 1e12, attn)
    assert _close_to_displayed(bd.components["Proj"] / 1e12, proj)
    assert _close_to_displayed(bd.components["FFN"] / 1e12, ffn)
    assert _close_to_displayed(bd.components["Others"] / 1e12, others)
    assert _close_to_displayed(bd.total / 1e12, total)


@pytest.mark.parametrize("T", sorted(SEG_ATTN))
def test_segmented_attention_column_match_published(T):
    cfg = dataclasses.replace(P7B.cfg, S=T // 4)
    bd = count_flops("segmented", T, P7B.dims, cfg)
    assert _close_to_displayed(bd.components["Attn"] / 1e12, SEG_ATTN[T])
    assert _close_to_displayed(bd.total / 1e12, SEG_TOTAL[T])
    assert bd.components["LC+GI"] == 0


@pytest.mark.parametrize("T", sorted(HICI_TOTAL))
def test_hici_total_and_overhead_ratio(T):
    cfg = dataclasses.replace(P7B.cfg, S=T // 4)
    seg = count_flops("segmented", T, P7B.dims, cfg)
    hic = count_flops("hici", T, P7B.dims, cfg)
    assert abs(hic.total / 1e12 - HICI_TOTAL[T]) / HICI_TOTAL[T] <= 0.10
    assert 1.00 <= hic.total / seg.total <= 1.03


def test_hici_lcgi_dominated_by_kv_projections():
    cfg = dataclasses.replace(P7B.cfg, S=2048)
    bd = count_flops("hici", 8192, P7B.dims, cfg)
    main = P7B.dims.n_layers * 4 * 8192 * 4096 * 512
    assert main <= bd.components["LC+GI"] <= 1.02 * main
    assert _close_to_displayed(bd.components["LC+GI"] / 1e12, 2.2)


def test_flops_requires_divisible_context():
    with pytest.raises(Exception, match="divisible"):
        count_flops("hici", 8191, P7B.dims, P7B.cfg)


def test_flops_table_rows_and_render():
    rows = flops_table(P7B)
    assert len(rows) == 3 * len(PAPER_CONTEXTS)
    text = format_flops_table(rows)
    assert "8.8" in text and "143.4" in text and "2727.5" in text


# ---------------------------------------------------------------------------
# instrumented probe


PROBE_CFG = HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8)


def test_probe_measured_matmul_matches_analytic_exactly():
    rows = scaling_probe(PROBE_CFG, [64, 128, 256], seed=0)
    for row in rows:
        for scope, measured in row.flops_matmul.items():
            analytic = row.analytic_matmul[scope]
            assert measured == analytic, (row.T, scope)


def test_probe_doubling_ratio_near_two():
    rows = scaling_probe(PROBE_CFG, [64, 128, 256, 512], seed=1)
    for a, b in zip(rows, rows[1:]):
        ratio = b.flops_total / a.flops_total
        assert 1.98 <= ratio <= 2.02


def test_probe_per_segment_cost_scales_with_S():
    # doubling S at fixed T roughly doubles the broadcast attention term
    rows_s = scaling_probe(PROBE_CFG, [256], seed=2)
    cfg2 = dataclasses.replace(PROBE_CFG, S=64)
    rows_2s = scaling_probe(cfg2, [256], seed=2)
    r = rows_2s[0].flops_matmul["broadcast_attn"] / rows_s[0].flops_matmul["broadcast_attn"]
    expected = (64 + 12) / (32 + 12)
    assert abs(r - expected) <= 1e-12
    assert 1.5 <= r <= 2.0


def test_count_flops_lcgi_matches_instrumented_counter():
    # the closed-form LC+GI matmul terms and the armed counter agree to
    # well under 2% (they are the same arithmetic, so exactly here)
    T = 128
    dims = ModelDims(d=PROBE_CFG.d, n_layers=1, ffn_width=64, vocab=100)
    analytic = count_flops("hici", T, dims, PROBE_CFG).components["LC+GI"]
    rows = scaling_probe(PROBE_CFG, [T], seed=3)
    measured = rows[0].flops_matmul["local"] + rows[0].flops_matmul["global"]
    assert abs(measured - analytic) / analytic <= 0.02
    attn_analytic = count_flops("hici", T, dims, PROBE_CFG).components["Attn"]
    assert abs(rows[0].flops_matmul["broadcast_attn"] - attn_analytic) / attn_analytic <= 0.02


def test_module_matmul_flops_handles_disabled_stages():
    cfg = dataclasses.replace(PROBE_CFG, M=0, K=0)
    out = module_matmul_flops(cfg, 64)
    assert out["local"] == 0 and out["global"] == 0
    assert out["broadcast_attn"] == 4 * 64 * 32 * 32


def test_cost_breakdown_total_is_component_sum():
    bd = CostBreakdown(method="full", context=4,
                       components={"Attn": 1.0, "Proj": 2.0, "FFN": 3.0,
                                   "Others": 4.0, "LC+GI": 0.0})
    assert bd.total == 10.0
