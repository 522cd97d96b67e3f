import dataclasses
import math
import os
import resource
import tracemalloc
import weakref

import numpy as np
import pytest

from hici import host, tensor
from hici.attention import named_tensors, record_attn_mass
from hici.config import (
    SCOPE_ALL, SCOPE_PRECEDING, ConfigError, HiCIConfig, HostConfig, load_host_config)
from hici.host import (
    BYTE_VOCAB,
    block_forward,
    encode_text,
    eval_ppl,
    init_host_params,
    lm_forward,
    load_checkpoint,
    moving_average,
    param_groups,
    save_checkpoint,
    train,
)
from hici.serialize import load_tensors, save_tensors
from hici.tensor import GraphError, Tensor, backward, cross_entropy_mean, no_grad

HC = HiCIConfig(S=8, M=2, K=2, H=2, d=32, d_b=16, d_s=8, global_scope=SCOPE_PRECEDING)
CFG = HostConfig(vocab_size=BYTE_VOCAB, n_layers=1, d=32, ffn_width=64,
                 max_T=32, seed=7, hici=HC)
CORPUS = encode_text("abcdefgh" * 64)
# two strictly causal layers at T=256: a step large enough to show its memory
STRICT_CFG = HostConfig(
    vocab_size=BYTE_VOCAB, n_layers=2, d=32, ffn_width=128, max_T=256, seed=3,
    hici=HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8, global_scope=SCOPE_PRECEDING))
STRICT_CORPUS = np.random.default_rng(1).integers(0, 256, size=4096)
MICRO_HOST = os.path.join(os.path.dirname(__file__), "..", "configs", "micro-host.json")


def test_host_config_validation():
    with pytest.raises(ConfigError, match="max_T"):
        dataclasses.replace(CFG, max_T=30).validate()
    with pytest.raises(ConfigError, match="vocab_size"):
        dataclasses.replace(CFG, vocab_size=1).validate()
    with pytest.raises(ConfigError, match="disagrees"):
        dataclasses.replace(CFG, d=64).validate()


# ---------------------------------------------------------------------------
# block


def test_block_identity_with_zero_projections():
    rng = np.random.default_rng(0)
    params = init_host_params(CFG, rng)
    layer = params.layers[0]
    layer.out_proj.data = np.zeros_like(layer.out_proj.data)
    layer.ffn_w2.data = np.zeros_like(layer.ffn_w2.data)
    x = rng.normal(size=(16, CFG.d))
    out = block_forward(Tensor(x), layer, CFG.hici)
    assert np.array_equal(out.data, x)


def test_block_output_shape():
    rng = np.random.default_rng(1)
    params = init_host_params(CFG, rng)
    x = Tensor(rng.normal(size=(2 * HC.S, CFG.d)))
    assert block_forward(x, params.layers[0], CFG.hici).data.shape == (2 * HC.S, CFG.d)


# ---------------------------------------------------------------------------
# language model


def test_untrained_loss_near_log_vocab():
    rng = np.random.default_rng(2)
    params = init_host_params(CFG, rng)
    ids = np.random.default_rng(3).integers(0, 256, size=32)
    targets = np.random.default_rng(4).integers(0, 256, size=32)
    with no_grad():
        loss = cross_entropy_mean(lm_forward(params, ids, CFG), targets).item()
    assert abs(loss - math.log(CFG.vocab_size)) / math.log(CFG.vocab_size) <= 0.05


def test_logits_shape():
    params = init_host_params(CFG, np.random.default_rng(5))
    ids = np.zeros(32, dtype=np.int64)
    with no_grad():
        assert lm_forward(params, ids, CFG).data.shape == (32, CFG.vocab_size)


def test_lm_rejects_bad_inputs():
    params = init_host_params(CFG, np.random.default_rng(6))
    with pytest.raises(ConfigError, match="not divisible"):
        lm_forward(params, np.zeros(30, dtype=np.int64), CFG)
    with pytest.raises(ConfigError, match="out of range"):
        lm_forward(params, np.full(32, BYTE_VOCAB, dtype=np.int64), CFG)
    with pytest.raises(ConfigError, match="max_T"):
        lm_forward(params, np.zeros(64, dtype=np.int64), CFG)
    with pytest.raises(ConfigError, match="empty token sequence"):
        lm_forward(params, np.zeros(0, dtype=np.int64), CFG)


def test_no_grad_forward_is_graph_free_and_bit_identical():
    params = init_host_params(CFG, np.random.default_rng(14))
    ids = np.random.default_rng(15).integers(0, 256, size=32)
    logits = lm_forward(params, ids, CFG)
    assert logits.requires_grad
    with no_grad():
        free = lm_forward(params, ids, CFG)
        loss = cross_entropy_mean(free, ids)
    assert np.array_equal(free.data, logits.data)
    assert not free.requires_grad and free._parents == ()
    backward(loss)
    assert all(p.grad is None for p in named_tensors(params).values())


def _graph(root):
    """Every tensor reachable from `root` through recorded parent links."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_backward_releases_the_graph_and_keeps_leaf_gradients():
    params = init_host_params(CFG, np.random.default_rng(18))
    ids = np.random.default_rng(19).integers(0, 256, size=33)
    logits = lm_forward(params, ids[:-1], CFG)
    loss = cross_entropy_mean(logits, ids[1:])
    nodes = _graph(loss._node)
    interior = [t for t in nodes if t._backward is not None]
    leaves = [t for t in nodes if t._backward is None]
    kept = logits.data.copy()
    backward(loss)
    assert loss._node in interior and logits._node in interior
    assert all(t.grad is None and t._backward is None and t._parents == () for t in interior)
    assert np.array_equal(logits.data, kept)                  # a held tensor keeps its data
    named = named_tensors(params).values()
    assert {id(t) for t in leaves} == {id(p) for p in named if p.grad is not None}
    assert all(t.grad.shape == t.data.shape for t in leaves)
    with pytest.raises(GraphError, match="already ran"):
        backward(loss)
    with pytest.raises(GraphError, match="already ran"):   # a new node over a spent one
        backward(cross_entropy_mean(logits, ids[1:]))


def test_the_graph_keeps_no_array_that_no_backward_reads(monkeypatch):
    # no backward reads the logits or a residual sum (the embedding sum and each
    # block's two residual adds): a node keeps only the arrays its own closure
    # reads, so they die with the forward's last reference to them
    cfg = dataclasses.replace(CFG, n_layers=2)
    params = init_host_params(cfg, np.random.default_rng(20))
    ids = np.random.default_rng(21).integers(0, 256, size=33)
    named = named_tensors(params)
    add, outputs = host.add, []

    def recorded_add(a, b):
        outputs.append(add(a, b))
        return outputs[-1]

    monkeypatch.setattr(host, "add", recorded_add)

    def step_loss():
        logits = lm_forward(params, ids[:-1], cfg)
        outputs.append(logits)
        return cross_entropy_mean(logits, ids[1:])

    loss = step_loss()                 # every tensor held: the reference gradients
    backward(loss)
    want = {name: p.grad for name, p in named.items()}
    assert len(outputs) == 2 * cfg.n_layers + 2
    for p in named.values():
        p.grad = None
    outputs.clear()

    loss = step_loss()
    dead = [weakref.ref(t.data) for t in outputs]
    outputs.clear()
    assert [ref() is None for ref in dead] == [True] * len(dead)
    backward(loss)
    for name, p in named.items():
        assert np.array_equal(p.grad, want[name]), name


@pytest.mark.parametrize("n_layers, scope, nodes", [(2, SCOPE_ALL, 155), (1, SCOPE_PRECEDING, 84)])
def test_a_training_step_graph_has_the_benchmark_hosts_node_count(n_layers, scope, nodes):
    # the hosts of the `train` (T=512) and `strict-train` (T=2048) benchmark steps;
    # from two segments on, the count does not depend on T
    hici_cfg = HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8, global_scope=scope)
    cfg = HostConfig(vocab_size=BYTE_VOCAB, n_layers=n_layers, d=32, ffn_width=128,
                     max_T=64, seed=0, hici=hici_cfg)
    params = init_host_params(cfg, np.random.default_rng(22))
    ids = np.random.default_rng(23).integers(0, 256, size=65)
    loss = cross_entropy_mean(lm_forward(params, ids[:-1], cfg), ids[1:])
    assert len(_graph(loss)) == nodes


def test_no_grad_forward_memory_does_not_grow_with_depth():
    cfg = load_host_config(MICRO_HOST)
    ids = np.random.default_rng(16).integers(0, 256, size=cfg.max_T)
    peaks = []
    for n_layers in (1, 4):
        deep = dataclasses.replace(cfg, n_layers=n_layers)
        params = init_host_params(deep, np.random.default_rng(17))
        with no_grad():
            lm_forward(params, ids, deep)            # untraced first call: one-time set-up
            tracemalloc.start()
            try:
                lm_forward(params, ids, deep)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    # a recorded graph would hold every layer's activations: about 3.2x here
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_eval_window_working_set_is_bounded_by_the_logits():
    hc = HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8)
    cfg = HostConfig(vocab_size=BYTE_VOCAB, n_layers=2, d=32, ffn_width=128,
                     max_T=2048, seed=5, hici=hc).validate()
    params = init_host_params(cfg, np.random.default_rng(5))
    ids = np.random.default_rng(6).integers(0, 256, size=2048)
    eval_ppl(params, cfg, ids, 2048, 2048)                  # untraced first call: set-up
    tracemalloc.start()
    try:
        eval_ppl(params, cfg, ids, 2048, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (T, vocab) logits are the one array the window needs whole; whole
    # score, exp and GELU buffers on top of them would reach about 2.3x
    assert peak <= 1.5 * 2048 * BYTE_VOCAB * 8, peak


def test_mass_recorder_leaves_one_record_list_per_layer():
    cfg = dataclasses.replace(CFG, n_layers=2)
    params = init_host_params(cfg, np.random.default_rng(12))
    ids = np.random.default_rng(13).integers(0, 256, size=32)
    with no_grad(), record_attn_mass() as per_layer:
        lm_forward(params, ids, cfg)
    assert len(per_layer) == 2
    for layer_idx, records in enumerate(per_layer):
        assert [(rec.layer, rec.head) for rec in records] == [
            (layer_idx, head) for head in range(cfg.hici.H)]
        for rec in records:
            assert abs(rec.frac_global + rec.frac_local + rec.frac_segment - 1.0) <= 1e-12


@pytest.mark.parametrize("cfg", [
    CFG,
    load_host_config(MICRO_HOST),
], ids=["preceding_segments", "micro-host"])
def test_causal_mode_logits_ignore_future(cfg):
    params = init_host_params(cfg, np.random.default_rng(7))
    ids = np.random.default_rng(8).integers(0, 256, size=32)
    with no_grad():
        base = lm_forward(params, ids, cfg).data
    for t in (5, 17, 30, 31):
        ids2 = ids.copy()
        ids2[t] = (ids2[t] + 1) % 256
        with no_grad():
            pert = lm_forward(params, ids2, cfg).data
        assert np.array_equal(base[:t], pert[:t])


@pytest.mark.parametrize("scope", [SCOPE_ALL, SCOPE_PRECEDING])
@pytest.mark.parametrize("slots", [2, 0])
@pytest.mark.parametrize("mask", [True, False])
def test_a_config_is_causal_exactly_when_no_logit_reads_a_later_token(scope, slots, mask):
    cfg = dataclasses.replace(CFG, hici=dataclasses.replace(
        HC, M=slots, K=slots, global_scope=scope, causal_segment_mask=mask))
    params = init_host_params(cfg, np.random.default_rng(7))
    ids = np.random.default_rng(8).integers(0, 256, size=32)
    with no_grad():
        base = lm_forward(params, ids, cfg).data
        moved = []
        for t in range(32):
            ids2 = ids.copy()
            ids2[t] = (ids2[t] + 1) % 256
            moved.append(not np.array_equal(base[:t], lm_forward(params, ids2, cfg).data[:t]))
    assert cfg.hici.causal == (mask and (scope == SCOPE_PRECEDING or slots == 0))
    assert any(moved) == (not cfg.hici.causal)


# ---------------------------------------------------------------------------
# training


def test_training_reaches_low_loss_on_repetitive_corpus():
    _, _, _, trace = train(CORPUS, CFG, 200)
    assert trace[-1][1] < 0.1


def test_training_deterministic():
    _, _, _, t1 = train(CORPUS, CFG, 25)
    _, _, _, t2 = train(CORPUS, CFG, 25)
    assert t1 == t2


def test_training_moving_average_monotone():
    _, _, _, trace = train(CORPUS, CFG, 150)
    ma = moving_average([l for _, l, _ in trace], 20)
    assert all(b <= a + 1e-9 for a, b in zip(ma, ma[1:]))


def test_zero_steps_keeps_initialization(tmp_path):
    rng = np.random.default_rng(CFG.seed)
    reference = init_host_params(CFG, rng)
    params, opt, _, trace = train(CORPUS, CFG, 0)
    assert trace == []
    assert opt.t == 0
    ref_named = named_tensors(reference)
    for name, p in named_tensors(params).items():
        assert np.array_equal(p.data, ref_named[name].data)


def test_training_stops_on_non_finite_loss_before_the_update():
    params = init_host_params(CFG, np.random.default_rng(CFG.seed))
    params.layers[0].ffn_w1.data[0, 0] = np.nan
    before = {name: t.data.copy() for name, t in named_tensors(params).items()}
    _, opt, _, trace = train(CORPUS, CFG, 3, params=params, start_step=4)
    assert len(trace) == 1 and trace[0][0] == 4 and math.isnan(trace[0][1])
    assert opt.t == 0
    for name, t in named_tensors(params).items():
        assert np.array_equal(t.data, before[name], equal_nan=True), name


def test_training_rejects_tiny_corpus():
    with pytest.raises(ConfigError, match="corpus"):
        train(encode_text("ab"), CFG, 1)


def test_training_rejects_negative_steps():
    with pytest.raises(ConfigError, match="steps must be >= 0, got -1"):
        train(CORPUS, CFG, -1)


def test_a_step_holds_nothing_of_the_previous_step():
    # a backward that kept its graph left the previous step's whole graph bound to
    # `logits` and `loss` during the next forward: about 1.45x here
    train(STRICT_CORPUS, STRICT_CFG, 1)                     # untraced first call: set-up
    peaks = []
    for steps in (1, 4):
        tracemalloc.start()
        try:
            train(STRICT_CORPUS, STRICT_CFG, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_a_training_step_adds_less_than_one_logits_array_to_its_forward(monkeypatch, cpus):
    # the loss takes exp(logits - row max) in the logits' own buffer, which only the
    # graph holds in `train`; with a buffer of its own the step rose by about 1.14
    # logits arrays past the bytes alive when the forward returned. On one CPU: with
    # the pool, the backward's lane keeps the head's adjoint until its weight product
    # ends, and whether that reaches the backward's peak depends on thread timing
    if tensor._SOLE_REF_COUNTS is None:
        pytest.skip("this Python's reference counts do not tell a temporary argument "
                    "from a named one, so the loss takes over no buffer")
    cpus(1)
    params, opt, rng, _ = train(STRICT_CORPUS, STRICT_CFG, 1)   # set-up: AdamW's moments
    forward, returned = host.lm_forward, []

    def tracked(*args):
        logits = forward(*args)
        returned.append((tracemalloc.get_traced_memory()[0], logits.data.nbytes))
        return logits

    monkeypatch.setattr(host, "lm_forward", tracked)
    tracemalloc.start()
    try:
        train(STRICT_CORPUS, STRICT_CFG, 1, params=params, opt=opt, rng=rng, start_step=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (alive, logits_bytes), = returned
    assert peak - alive <= 0.75 * logits_bytes, (peak - alive, logits_bytes)


def test_train_frees_the_previous_steps_logits_before_the_next_forward(monkeypatch):
    # no step's logits may outlive its backward: the next forward runs without them
    forward, outputs, alive = host.lm_forward, [], []

    def tracked(*args):
        alive.append(any(ref() is not None for ref in outputs))
        logits = forward(*args)
        outputs.append(weakref.ref(logits.data))
        return logits

    monkeypatch.setattr(host, "lm_forward", tracked)
    train(CORPUS, CFG, 4)
    assert alive == [False] * 4


def test_training_steps_reuse_the_heap_the_backward_freed():
    # with glibc's moving thresholds the heap the sweep frees went back to the
    # system after each step and faulted in again: about 220-290 minor faults a
    # step here, about 15-20 with the heap kept
    params, opt, rng, _ = train(STRICT_CORPUS, STRICT_CFG, 2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(STRICT_CORPUS, STRICT_CFG, 4, params=params, opt=opt, rng=rng, start_step=2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 4 * 100, faults


def test_warmup_shows_in_lr_column():
    _, _, _, trace = train(CORPUS, CFG, 25)
    lrs = [lr for _, _, lr in trace]
    assert lrs[0] == pytest.approx(CFG.lr_backbone / CFG.warmup_steps)
    assert lrs[19] == pytest.approx(CFG.lr_backbone)
    assert lrs[24] == pytest.approx(CFG.lr_backbone)


def test_adamw_step_updates_the_moments_in_place():
    params = init_host_params(CFG, np.random.default_rng(10))
    b1, b2 = 0.9, 0.95
    opt = host.AdamW(param_groups(params), beta1=b1, beta2=b2)
    m, v = dict(opt.m), dict(opt.v)
    rng = np.random.default_rng(11)
    for _ in range(2):
        grads = {}
        for name, p in named_tensors(params).items():
            p.grad = grads[name] = rng.normal(size=p.data.shape)
        want_m = {name: b1 * m[name] + (1 - b1) * g for name, g in grads.items()}
        want_v = {name: b2 * v[name] + (1 - b2) * g * g for name, g in grads.items()}
        opt.step({"backbone": 1e-3, "hici": 1e-2})
        for name in grads:
            assert opt.m[name] is m[name] and opt.v[name] is v[name], name
            assert np.array_equal(m[name], want_m[name]) and np.array_equal(v[name], want_v[name])


def test_named_tensors_walks_the_host_in_field_order():
    params = init_host_params(dataclasses.replace(CFG, n_layers=2), np.random.default_rng(9))
    named = named_tensors(params)
    layer = ["hici." + name for name in named_tensors(params.layers[0].hici)] + [
        "out_proj", "ln1_g", "ln1_b", "ln2_g", "ln2_b", "ffn_w1", "ffn_w2"]
    assert list(named) == (["embed", "pos"] + [f"layers.{i}.{name}" for i in (0, 1)
                                                for name in layer]
                           + ["final_g", "final_b", "head"])
    assert len(named) == 61
    assert named["layers.1.hici.global.gate_raw"] is params.layers[1].hici.global_.gate_raw
    assert named["layers.0.ffn_w2"] is params.layers[0].ffn_w2 and named["pos"] is params.pos


def test_hici_group_separated_from_backbone():
    params = init_host_params(CFG, np.random.default_rng(9))
    groups = param_groups(params)
    assert len(groups["hici"]) == 21
    assert all(".hici." in k for k in groups["hici"])
    assert "embed" in groups["backbone"] and "head" in groups["backbone"]


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip_and_resume_bit_exact(tmp_path):
    params, opt, rng, _ = train(CORPUS, CFG, 20)
    save_checkpoint(str(tmp_path), CFG, params, opt, rng, step=20)
    cfg2, params2, opt2, rng2, step = load_checkpoint(str(tmp_path))
    assert step == 20 and cfg2 == CFG

    _, _, _, full = train(CORPUS, CFG, 40)
    _, _, _, resumed = train(CORPUS, cfg2, 20, params=params2, opt=opt2,
                             rng=rng2, start_step=step)
    assert [l for _, l, _ in resumed] == [l for _, l, _ in full[20:]]


def test_load_checkpoint_rejects_a_tensor_it_does_not_read(tmp_path):
    params, opt, rng, _ = train(CORPUS, CFG, 1)
    save_checkpoint(str(tmp_path), CFG, params, opt, rng, step=1)
    prefix = str(tmp_path / "checkpoint")
    tensors = load_tensors(prefix)
    tensors["layers.0.pos"] = np.zeros(3)    # a name the config has no place for
    save_tensors(prefix, tensors)
    with pytest.raises(ValueError, match="does not define: 'layers.0.pos'$"):
        load_checkpoint(str(tmp_path))


def test_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    params, opt, rng, _ = train(CORPUS, CFG, 3)
    save_checkpoint(str(ckpt), CFG, params, opt, rng, step=3)
    first = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    saved = {name: t.data.copy() for name, t in named_tensors(params).items()}
    params, opt, rng, _ = train(CORPUS, CFG, 2, params=params, opt=opt, rng=rng, start_step=3)

    def save_half(prefix, tensors, dtype="f8"):
        with open(f"{prefix}.bin", "wb") as fh:
            fh.write(b"\0" * 100)
        raise OSError("disk full")

    monkeypatch.setattr(host, "save_tensors", save_half)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(ckpt), CFG, params, opt, rng, step=5)
    assert os.listdir(tmp_path) == ["ckpt"]
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == first
    _, params2, _, _, step = load_checkpoint(str(ckpt))
    assert step == 3
    assert all(np.array_equal(t.data, saved[name])
               for name, t in named_tensors(params2).items())
    monkeypatch.undo()
    save_checkpoint(str(ckpt), CFG, params, opt, rng, step=5)
    assert os.listdir(tmp_path) == ["ckpt"] and load_checkpoint(str(ckpt))[4] == 5


# ---------------------------------------------------------------------------
# perplexity


@pytest.fixture(scope="module")
def memorizing_model():
    cfg = dataclasses.replace(CFG, seed=11)
    corpus = encode_text("ab" * 300)
    params, _, _, _ = train(corpus, cfg, 250)
    return params, cfg, corpus


def test_ppl_of_memorizing_model_approaches_one(memorizing_model):
    params, cfg, corpus = memorizing_model
    assert eval_ppl(params, cfg, corpus, eval_T=32, stride=16) < 1.05


def test_ppl_degenerate_stride_is_chunked(memorizing_model):
    params, cfg, corpus = memorizing_model
    # stride == eval_T scores every target of every non-overlapping window
    ppl = eval_ppl(params, cfg, corpus, eval_T=32, stride=32)
    nlls = []
    for start in range(0, corpus.shape[0] - 32 + 1, 32):
        w = corpus[start:start + 32]
        with no_grad():
            logits = lm_forward(params, w, cfg).data[:-1]
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        nlls.extend(lse - logits[np.arange(31), w[1:]])
    assert ppl == pytest.approx(math.exp(np.mean(nlls)), rel=1e-12)


def test_ppl_of_untrained_model_near_vocab_size():
    params = init_host_params(CFG, np.random.default_rng(12))
    text = np.random.default_rng(13).integers(0, 256, size=400)
    ppl = eval_ppl(params, CFG, text, eval_T=32, stride=32)
    assert abs(ppl - CFG.vocab_size) / CFG.vocab_size <= 0.10


def test_ppl_window_decomposition_invariant(memorizing_model):
    # processing the windows in any grouping must reproduce the same value:
    # recompute with a reversed window order, accumulating identically
    params, cfg, corpus = memorizing_model
    stride, eval_t = 8, 32
    expected = eval_ppl(params, cfg, corpus, eval_T=eval_t, stride=stride)
    per_window = {}
    starts = list(range(0, corpus.shape[0] - eval_t + 1, stride))
    for start in reversed(starts):
        w = corpus[start:start + eval_t]
        with no_grad():
            logits = lm_forward(params, w, cfg).data[:-1]
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        nll = lse - logits[np.arange(eval_t - 1), w[1:]]
        per_window[start] = list(nll if start == 0 else nll[-stride:])
    ordered = [x for start in starts for x in per_window[start]]
    assert expected == math.exp(math.fsum(ordered) / len(ordered))


def test_ppl_full_attention_mode_runs(memorizing_model):
    params, cfg, corpus = memorizing_model
    ppl = eval_ppl(params, cfg, corpus, eval_T=32, stride=16, mode="full")
    assert ppl < 1.2  # memorized pattern survives the eval-attention swap


def test_ppl_rejects_short_text():
    params = init_host_params(CFG, np.random.default_rng(14))
    with pytest.raises(ConfigError, match="shorter"):
        eval_ppl(params, CFG, np.zeros(16, dtype=np.int64), eval_T=32, stride=16)
