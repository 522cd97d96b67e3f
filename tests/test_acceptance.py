"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers (run with `pytest -s` to see
the lines as they happen). Budgets are asserted, not just documented.
"""

import dataclasses
import time

import numpy as np
import pytest

from hici.analysis import (
    ACCOUNTING_PRESETS,
    MICRO_CFG,
    count_flops,
    count_params,
    scaling_probe,
)
from hici.attention import (
    collect_attn_mass,
    hici_forward,
    init_hici_params,
    integrate_global,
    pooled_stats,
    record_attn_mass,
    uniform_queries,
)
from hici.cli import dispatch
from hici.config import SCOPE_PRECEDING, HiCIConfig, HostConfig
from hici.gradcheck import check_host_block_gradients, check_module_gradients, worst_error
from hici.host import BYTE_VOCAB, encode_text, lm_forward, moving_average, train
from hici.tensor import Tensor, _softmax, no_grad, softplus

from oracles import reference_mha

P7B = ACCOUNTING_PRESETS["llama2-7b"]

TOY_HICI = HiCIConfig(S=8, M=2, K=2, H=2, d=32, d_b=16, d_s=8, global_scope=SCOPE_PRECEDING)
TOY_HOST = HostConfig(vocab_size=BYTE_VOCAB, n_layers=1, d=32, ffn_width=64,
                      max_T=32, seed=7, hici=TOY_HICI)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. parameter table


def test_criterion_1_parameter_table(capsys):
    t0 = time.perf_counter()
    code = dispatch(["params", "--preset", "llama2-7b", "--paper-layout"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    bd = count_params(P7B.cfg, P7B.dims.n_layers, P7B.base_params)
    ok = (
        code == 0
        and f"{bd.local_per_layer / 1e6:.1f}M" == "8.4M" and "8.4M" in out
        and f"{bd.global_per_layer / 1e6:.1f}M" == "3.7M" and "3.7M" in out
        and f"{bd.total / 1e6:.1f}M" == "389.1M" and "389.1M" in out
        and abs(100 * bd.overhead - 5.46) <= 0.01 and "5.46%" in out
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, "parameter table", ok,
                f"local/layer {bd.local_per_layer}, global/layer {bd.global_per_layer}, "
                f"total {bd.total}, overhead {100 * bd.overhead:.4f}%, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. FLOPs table


FULL_TABLE = {
    8192: (35.2, 35.2, 70.9, 2.1),
    16384: (140.7, 70.4, 141.8, 4.3),
    32768: (562.9, 140.7, 283.7, 8.6),
    65536: (2251.8, 281.5, 567.3, 17.2),
    102400: (5497.6, 439.8, 886.5, 26.8),
}
SEG_ATTN = {8192: 8.8, 16384: 35.2, 32768: 140.7, 65536: 562.9, 102400: 1374.4}
HICI_TOTAL = {8192: 119.9, 16384: 257.3, 32768: 585.0, 65536: 1451.4, 102400: 2762.6}


def test_criterion_2_flops_table(capsys):
    t0 = time.perf_counter()
    failures = []
    ratios = []
    for T, (attn, proj, ffn, others) in FULL_TABLE.items():
        cfg = dataclasses.replace(P7B.cfg, S=T // 4)
        full = count_flops("full", T, P7B.dims, cfg)
        for column, published in (("Attn", attn), ("Proj", proj),
                                  ("FFN", ffn), ("Others", others)):
            if abs(full.components[column] / 1e12 - published) > 0.05:
                failures.append(f"full {column}@{T}")
        seg = count_flops("segmented", T, P7B.dims, cfg)
        if abs(seg.components["Attn"] / 1e12 - SEG_ATTN[T]) > 0.05:
            failures.append(f"segmented Attn@{T}")
        hic = count_flops("hici", T, P7B.dims, cfg)
        if abs(hic.total / 1e12 - HICI_TOTAL[T]) / HICI_TOTAL[T] > 0.10:
            failures.append(f"hici total@{T}")
        ratio = hic.total / seg.total
        ratios.append(ratio)
        if not 1.00 <= ratio <= 1.03:
            failures.append(f"ratio@{T}={ratio:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    with capsys.disabled():
        _report(2, "FLOPs table", not failures,
                f"5 contexts, hierarchical/segmented ratios "
                f"{min(ratios):.4f}..{max(ratios):.4f}, {elapsed:.3f}s"
                + (f"; failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 3. gradient acceptance


def test_criterion_3_gradients(capsys):
    t0 = time.perf_counter()
    errors = check_module_gradients(MICRO_CFG, seed=0)
    errors.update({f"host.{k}": v for k, v in
                   check_host_block_gradients(MICRO_CFG, seed=0).items()})
    elapsed = time.perf_counter() - t0
    worst, worst_err = worst_error(errors)
    ok = worst_err <= 1e-6 and elapsed < 120.0
    with capsys.disabled():
        _report(3, "gradient check", ok,
                f"{len(errors)} tensors, max rel err {worst_err:.3e} "
                f"({worst}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. oracle equivalence


def test_criterion_4_oracle_equivalence(capsys):
    cfg = dataclasses.replace(MICRO_CFG, S=8, M=0, K=0, H=4,
                              causal_segment_mask=False)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        params = init_hici_params(cfg, rng)
        x = rng.normal(size=(cfg.S, cfg.d))
        ours = hici_forward(Tensor(x), params, cfg).data
        ref = reference_mha(x, params.broadcast.w_q.data, params.broadcast.w_k.data,
                            params.broadcast.w_v.data, cfg.H)
        worst = max(worst, float(np.abs(ours - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    with capsys.disabled():
        _report(4, "oracle equivalence", ok,
                f"50 seeds, max |diff| {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. structural invariants (>= 100 random cases each)


def test_criterion_5_structural_invariants(capsys):
    rng = np.random.default_rng(123)
    cfg = MICRO_CFG
    t0 = time.perf_counter()
    failures = []

    for _ in range(100):  # softmax rows sum to 1
        m, n = rng.integers(1, 9, size=2)
        p = _softmax(rng.normal(scale=8.0, size=(m, n)))
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
            failures.append("softmax row sums")
            break

    for _ in range(100):  # gate strictly positive
        if not softplus(Tensor([rng.normal(scale=30.0)])).data[0] > 0.0:
            failures.append("gate positivity")
            break

    params = init_hici_params(cfg, rng)
    for _ in range(100):  # global context invariant under segment permutation
        n_seg = int(rng.integers(2, 7))
        blocks = rng.normal(size=(n_seg, cfg.M, cfg.d))
        g = integrate_global(pooled_stats(Tensor(blocks.reshape(1, -1, cfg.d))),
                             params.global_, cfg).data
        perm = rng.permutation(n_seg)
        g2 = integrate_global(pooled_stats(Tensor(blocks[perm].reshape(1, -1, cfg.d))),
                              params.global_, cfg).data
        if not np.array_equal(g, g2):
            failures.append("pooling permutation invariance")
            break

    s = cfg.S
    for _ in range(100):  # forward equivariant under segment swap
        x = rng.normal(size=(4 * s, cfg.d))
        i, j = sorted(rng.choice(4, size=2, replace=False))
        out = hici_forward(Tensor(x), params, cfg).data
        xs = x.copy()
        xs[i * s:(i + 1) * s], xs[j * s:(j + 1) * s] = \
            x[j * s:(j + 1) * s].copy(), x[i * s:(i + 1) * s].copy()
        expected = out.copy()
        expected[i * s:(i + 1) * s], expected[j * s:(j + 1) * s] = \
            out[j * s:(j + 1) * s].copy(), out[i * s:(i + 1) * s].copy()
        if not np.array_equal(hici_forward(Tensor(xs), params, cfg).data, expected):
            failures.append("segment equivariance")
            break

    strict = dataclasses.replace(cfg, causal_segment_mask=True,
                                 global_scope=SCOPE_PRECEDING)
    for _ in range(100):  # strict causal mode: later positions cannot leak back
        x = rng.normal(size=(3 * s, cfg.d))
        t = int(rng.integers(1, 3 * s))
        base = hici_forward(Tensor(x), params, strict).data
        x2 = x.copy()
        x2[t] += rng.normal() + 1.0
        pert = hici_forward(Tensor(x2), params, strict).data
        if not np.array_equal(base[:t], pert[:t]):
            failures.append("causal perturbation independence")
            break

    g_bytes = set()
    for _ in range(100):  # |G| fixed while T grows
        for n_seg in (4, 8, 16):
            blocks = Tensor(rng.normal(size=(1, n_seg * cfg.M, cfg.d)))
            g_bytes.add(integrate_global(pooled_stats(blocks), params.global_, cfg).data.nbytes)
    if len(g_bytes) != 1:
        failures.append("capacity independence")

    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s")
    with capsys.disabled():
        _report(5, "structural invariants", not failures,
                f"6 property families x 100 cases, {elapsed:.1f}s"
                + (f"; failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 6. linear scaling


def test_criterion_6_linear_scaling(capsys):
    cfg = HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8)
    t0 = time.perf_counter()
    rows = scaling_probe(cfg, [2 * cfg.S, 4 * cfg.S, 8 * cfg.S, 16 * cfg.S], seed=0)
    ratios = [b.flops_total / a.flops_total for a, b in zip(rows, rows[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(1.98 <= r <= 2.02 for r in ratios) and elapsed < 120.0
    with capsys.disabled():
        _report(6, "linear scaling", ok,
                "T doubling ratios " + ", ".join(f"{r:.4f}" for r in ratios)
                + f", {elapsed:.1f}s")


def test_strict_scope_linear_scaling():
    # the strictly causal scope pools every prefix in one pass, so its FLOPs
    # double with T too; in both scopes the analytic matmul counts of every
    # module scope equal the counter's
    cfg = HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8)
    t_list = [2 * cfg.S, 4 * cfg.S, 8 * cfg.S, 16 * cfg.S]
    strict = scaling_probe(dataclasses.replace(cfg, global_scope=SCOPE_PRECEDING), t_list, seed=0)
    ratios = [b.flops_total / a.flops_total for a, b in zip(strict, strict[1:])]
    assert all(1.98 <= r <= 2.02 for r in ratios), ratios
    for row in strict + scaling_probe(cfg, t_list, seed=0):
        assert row.flops_matmul == row.analytic_matmul, row.T


# ---------------------------------------------------------------------------
# 7. toy training


def test_criterion_7_toy_training(capsys):
    corpus = encode_text("abcdefgh" * 64)
    t0 = time.perf_counter()
    _, _, _, trace1 = train(corpus, TOY_HOST, 500)
    _, _, _, trace2 = train(corpus, TOY_HOST, 500)
    elapsed = time.perf_counter() - t0
    losses = [l for _, l, _ in trace1]
    ma = moving_average(losses, 20)
    monotone = all(b <= a + 1e-9 for a, b in zip(ma, ma[1:]))
    ok = (losses[-1] < 0.1 and monotone and trace1 == trace2 and elapsed < 600.0)
    with capsys.disabled():
        _report(7, "toy training", ok,
                f"final loss {losses[-1]:.2e}, 20-step MA monotone: {monotone}, "
                f"deterministic: {trace1 == trace2}, {elapsed:.1f}s (2 runs)")


# ---------------------------------------------------------------------------
# 8. attention-mass baselines


def test_criterion_8_attention_mass(capsys):
    t0 = time.perf_counter()
    failures = []
    for s, total in ((1024, 1036), (2048, 2060)):
        cfg = HiCIConfig(S=s, M=8, K=4, H=2, d=16, d_b=8, d_s=4,
                         causal_segment_mask=False)
        rng = np.random.default_rng(0)
        params = init_hici_params(cfg, rng)
        x = Tensor(rng.normal(size=(s, cfg.d)))
        for rec in collect_attn_mass(x, uniform_queries(params), cfg):
            if rec.frac_global != 4.0 / total:
                failures.append(f"probe S={s} head {rec.head}: {rec.frac_global!r}")

    corpus = encode_text("the quick brown fox jumps over the lazy dog. " * 40)
    cfg = dataclasses.replace(TOY_HOST, n_layers=2, seed=5)
    params, _, _, _ = train(corpus, cfg, 50)
    ids = corpus[:cfg.max_T]
    with no_grad(), record_attn_mass() as collectors:
        lm_forward(params, ids, cfg)
    worst_gap = 0.0
    for records in collectors:
        for rec in records:
            gap = abs(rec.frac_global + rec.frac_local + rec.frac_segment - 1.0)
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9:
                failures.append(f"sum layer {rec.layer} head {rec.head}")
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(8, "attention-mass baselines", not failures,
                f"uniform probe exact at 4/1036 and 4/2060; trained-model "
                f"fraction sums within {worst_gap:.1e} of 1, {elapsed:.1f}s"
                + (f"; failures: {failures}" if failures else ""))
