"""Toy byte-level transformer LM hosting the hierarchical attention module.

Pre-norm residual blocks: x + OutProj(attention(Norm(x))), then
x + FFN(Norm(x)). The host owns the d x d output projection that the
attention stage itself does not define. Token and learned absolute
position embeddings feed the first block; slot positions are never
position-encoded. Training is plain next-token cross-entropy with AdamW,
two parameter groups (backbone vs. attention module) with separate
learning rates, linear warmup, and a global-norm gradient clip applied
to the attention-module group only.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from .attention import (
    HiCIParams,
    _xavier,
    hici_forward,
    init_hici_params,
    named_tensors,
    run_stages,
)
from .config import ConfigError, HostConfig, config_to_dict, host_config_from_dict
from .serialize import load_tensors, save_tensors, write_json
from .tensor import (
    Tensor,
    add,
    backward,
    cross_entropy_mean,
    embedding,
    flop_scope,
    gelu,
    grad_or_zero,
    layer_norm,
    matmul,
    nll_rows,
    no_grad,
    parameter,
    slice_rows,
)

BYTE_VOCAB = 257       # 256 raw bytes + separator


def encode_bytes(data):
    """Raw bytes to token ids (identity on byte values)."""
    return np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)


def encode_text(text):
    return encode_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# parameters


@dataclass
class LayerParams:
    hici: HiCIParams
    out_proj: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    ffn_w1: Tensor
    ffn_w2: Tensor


@dataclass
class HostParams:
    embed: Tensor
    pos: Tensor
    layers: list
    final_g: Tensor
    final_b: Tensor
    head: Tensor


def init_host_params(cfg: HostConfig, rng) -> HostParams:
    d, f = cfg.d, cfg.ffn_width
    layers = []
    for _ in range(cfg.n_layers):
        layers.append(LayerParams(
            hici=init_hici_params(cfg.hici, rng),
            out_proj=parameter(_xavier(rng, d, d)),
            ln1_g=parameter(np.ones(d)),
            ln1_b=parameter(np.zeros(d)),
            ln2_g=parameter(np.ones(d)),
            ln2_b=parameter(np.zeros(d)),
            ffn_w1=parameter(_xavier(rng, d, f)),
            ffn_w2=parameter(_xavier(rng, f, d)),
        ))
    return HostParams(
        embed=parameter(rng.normal(0.0, 0.02, size=(cfg.vocab_size, d))),
        pos=parameter(rng.normal(0.0, 0.02, size=(cfg.max_T, d))),
        layers=layers,
        final_g=parameter(np.ones(d)),
        final_b=parameter(np.zeros(d)),
        head=parameter(rng.normal(0.0, 0.02, size=(d, cfg.vocab_size))),
    )


def param_groups(params: HostParams):
    """Split into the attention-module group and everything else."""
    hici, backbone = {}, {}
    for name, t in named_tensors(params).items():
        (hici if ".hici." in name else backbone)[name] = t
    return {"hici": hici, "backbone": backbone}


# ---------------------------------------------------------------------------
# forward


def block_stages(layer: LayerParams, hici_cfg, module_stages):
    """A pre-norm residual block as (parameters, stage) pairs in order.

    ln1, then `module_stages` (the attention module on the ln1 output, as
    one stage or as its own four), the out_proj residual and the ln2/FFN
    residual. The module stages carry the residual stream beside their
    own state.
    """
    def beside(stage):
        return lambda s: (s[0], stage(s[1]))

    def ln1(x):
        return x, layer_norm(x, layer.ln1_g, layer.ln1_b, hici_cfg.ln_eps)

    def proj_residual(s):
        x, a = s
        with flop_scope("proj"):
            return add(x, matmul(a, layer.out_proj))

    def ffn_residual(x):
        # one name, rebound after each op: no FFN activation stays bound past its reader
        h = layer_norm(x, layer.ln2_g, layer.ln2_b, hici_cfg.ln_eps)
        with flop_scope("ffn"):
            h = matmul(h, layer.ffn_w1)
            h = gelu(h)
            h = matmul(h, layer.ffn_w2)
        return add(x, h)

    return ([((layer.ln1_g, layer.ln1_b), ln1)]
            + [(params, beside(stage)) for params, stage in module_stages]
            + [((layer.out_proj,), proj_residual),
               ((layer.ln2_g, layer.ln2_b, layer.ffn_w1, layer.ffn_w2), ffn_residual)])


def block_forward(x, layer: LayerParams, hici_cfg):
    """One pre-norm residual block around the attention module and an FFN.

    `run_stages` reads no stage parameters, so the module stage lists none.
    """
    module = [((), lambda h: hici_forward(h, layer.hici, hici_cfg))]
    return run_stages(block_stages(layer, hici_cfg, module), x)


def _check_window(cfg: HostConfig, n, label):
    """Raise ConfigError unless a window of n tokens splits into segments and fits max_T."""
    if n % cfg.hici.S != 0:
        raise ConfigError(f"{label}={n} not divisible by segment length S={cfg.hici.S}")
    if n > cfg.max_T:
        raise ConfigError(f"{label}={n} exceeds max_T={cfg.max_T}")


def lm_forward(params: HostParams, ids, cfg: HostConfig):
    """Token ids to T x vocab logits. T must divide by S and fit max_T."""
    ids = np.asarray(ids, dtype=np.int64)
    t = ids.shape[0]
    if t == 0:
        raise ConfigError("empty token sequence")
    _check_window(cfg, t, "sequence length T")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ConfigError(f"token id out of range [0, {cfg.vocab_size})")
    with flop_scope("others"):
        x = add(embedding(params.embed, ids), slice_rows(params.pos, 0, t))
    for layer in params.layers:
        x = block_forward(x, layer, cfg.hici)
    x = layer_norm(x, params.final_g, params.final_b, cfg.hici.ln_eps)   # drops the residual
    with flop_scope("others"):
        return matmul(x, params.head)


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Decoupled-weight-decay Adam over named parameter groups.

    The optimizer is the one sanctioned mutator of parameter tensors; it
    writes updates in place between forward/backward passes.
    """

    def __init__(self, groups, beta1=0.9, beta2=0.95, eps=1e-8, weight_decay=0.0):
        self.groups = groups
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {}
        self.v = {}
        for tensors in groups.values():
            for name, p in tensors.items():
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)

    def step(self, lrs):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for gname, tensors in self.groups.items():
            lr = lrs[gname]
            for name, p in tensors.items():
                g = grad_or_zero(p)
                m, v = self.m[name], self.v[name]
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                mhat = m / (1 - b1**self.t)
                vhat = v / (1 - b2**self.t)
                p.data -= lr * (mhat / (np.sqrt(vhat) + self.eps)
                                + self.weight_decay * p.data)

    def zero_grad(self):
        for tensors in self.groups.values():
            for p in tensors.values():
                p.grad = None


def clip_grad_norm(tensors, max_norm):
    """Global-norm clip over a group; returns the pre-clip norm."""
    total = math.sqrt(math.fsum(
        float(np.sum(grad_or_zero(p) ** 2)) for p in tensors.values()))
    if total > max_norm > 0:
        factor = max_norm / total
        for p in tensors.values():
            if p.grad is not None:
                p.grad *= factor
    return total


# ---------------------------------------------------------------------------
# training


def check_train_input(corpus_ids, cfg: HostConfig, steps):
    """Raise ConfigError unless `train` can run `steps` steps on the token array `corpus_ids`."""
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if corpus_ids.shape[0] < cfg.max_T + 1:
        raise ConfigError(
            f"corpus has {corpus_ids.shape[0]} tokens, needs at least max_T+1={cfg.max_T + 1}")


def train(corpus_ids, cfg: HostConfig, steps, params=None, opt=None, rng=None,
          start_step=0):
    """Next-token training; deterministic given the config seed.

    Returns (params, opt, rng, trace) where trace rows are
    (step, loss, backbone_lr) of this call's steps (`steps` >= 0). Pass
    params, opt, rng and the next step back in to continue a run (used
    by checkpoint resume). A non-finite loss or pre-clip hici gradient
    norm stops the run before that step's update: its row ends the trace
    and the parameters keep their previous values.
    """
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    check_train_input(corpus_ids, cfg, steps)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if params is None:
        params = init_host_params(cfg, rng)
    groups = param_groups(params)
    if opt is None:
        opt = AdamW(groups, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                    weight_decay=cfg.weight_decay)
    trace = []

    n_starts = corpus_ids.shape[0] - cfg.max_T
    for step in range(start_step, start_step + steps):
        start = int(rng.integers(0, n_starts))
        window = corpus_ids[start:start + cfg.max_T + 1]
        opt.zero_grad()
        # only the graph holds the logits, so the sweep frees them before the next forward
        loss = cross_entropy_mean(lm_forward(params, window[:-1], cfg), window[1:])
        backward(loss)
        grad_norm = clip_grad_norm(groups["hici"], cfg.grad_clip_hici)
        warm = min(1.0, (step + 1) / cfg.warmup_steps) if cfg.warmup_steps > 0 else 1.0
        trace.append((step, loss.item(), cfg.lr_backbone * warm))
        if not (math.isfinite(loss.item()) and math.isfinite(grad_norm)):
            break
        opt.step({"backbone": cfg.lr_backbone * warm, "hici": cfg.lr_hici * warm})
    return params, opt, rng, trace


def moving_average(values, window):
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] < window:
        return values.copy()
    kernel = np.ones(window) / window
    return np.convolve(values, kernel, mode="valid")


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(out_dir, cfg: HostConfig, params: HostParams, opt: AdamW,
                    rng, step):
    """Manifest+blob tensors, config, optimizer moments, step and RNG state.

    Tensors are stored as f8, so save/load/continue is bit-exact. The files
    go to a temporary sibling of `out_dir` that then replaces `out_dir`
    whole (the old directory is renamed aside, the new one in, the old
    one removed), so a save that fails part-way leaves the previous
    checkpoint as it was. `out_dir` belongs to the checkpoint: anything
    else in it is removed by the swap.
    """
    out_dir = os.path.abspath(out_dir)
    parent, base = os.path.split(out_dir)
    os.makedirs(parent, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f".{base}.tmp-", dir=parent)
    try:
        tensors = {name: p.data for name, p in named_tensors(params).items()}
        for name in opt.m:
            tensors[f"opt.m.{name}"] = opt.m[name]
            tensors[f"opt.v.{name}"] = opt.v[name]
        save_tensors(os.path.join(tmp_dir, "checkpoint"), tensors, dtype="f8")
        write_json(os.path.join(tmp_dir, "state.json"), {
            "step": int(step),
            "adam_t": int(opt.t),
            "rng_state": rng.bit_generator.state,
            "config": config_to_dict(cfg),
        })
        if not os.path.lexists(out_dir):
            os.rename(tmp_dir, out_dir)
            return
        old_dir = tmp_dir + ".old"
        os.rename(out_dir, old_dir)
        try:
            os.rename(tmp_dir, out_dir)
        except OSError:
            os.rename(old_dir, out_dir)
            raise
        shutil.rmtree(old_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def load_checkpoint(ckpt_dir):
    """Returns (cfg, params, opt, rng, step) rebuilt from disk; ValueError unless the
    tensors are exactly the config's parameters and their AdamW moments, in their shapes."""
    state_path = os.path.join(ckpt_dir, "state.json")
    with open(state_path, encoding="utf-8") as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError(f"{state_path}: expected a JSON object")
    missing = sorted({"step", "adam_t", "rng_state", "config"} - state.keys())
    if missing:
        raise ValueError(f"{state_path}: missing keys {missing}")
    for key in ("step", "adam_t"):
        if type(state[key]) is not int or state[key] < 0:
            raise ValueError(f"{state_path}: {key} {state[key]!r} is not a non-negative int")
    cfg = host_config_from_dict(state["config"], where=state_path)
    blobs = load_tensors(os.path.join(ckpt_dir, "checkpoint"))

    def stored(name, shape):
        if name not in blobs:
            raise ValueError(f"checkpoint lacks tensor {name!r}")
        if blobs[name].shape != shape:
            raise ValueError(f"checkpoint tensor {name}: shape {blobs[name].shape} vs {shape}")
        return np.ascontiguousarray(blobs[name])

    params = init_host_params(cfg, np.random.default_rng(0))
    named = named_tensors(params)
    unread = sorted(set(blobs) - {f"{kind}{name}" for name in named
                                  for kind in ("", "opt.m.", "opt.v.")})
    if unread:
        raise ValueError(f"checkpoint holds tensors its config does not define: "
                         f"{', '.join(map(repr, unread))}")
    for name, p in named.items():
        p.data = stored(name, p.data.shape)
    opt = AdamW(param_groups(params), beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                weight_decay=cfg.weight_decay)
    for name in opt.m:
        opt.m[name] = stored(f"opt.m.{name}", opt.m[name].shape)
        opt.v[name] = stored(f"opt.v.{name}", opt.v[name].shape)
    opt.t = state["adam_t"]
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state["rng_state"]
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ValueError(f"{state_path}: unusable rng_state ({exc})") from None
    return cfg, params, opt, rng, state["step"]


# ---------------------------------------------------------------------------
# evaluation


def eval_config(cfg: HostConfig, n_tokens, eval_T, stride, mode="hici"):
    """The config `eval_ppl` scores a text of `n_tokens` tokens with, once its
    arguments are checked; ConfigError if any of them is out of range."""
    if mode == "full":   # one segment without slots: plain causal attention in either scope
        cfg = dataclasses.replace(cfg, hici=dataclasses.replace(
            cfg.hici, S=eval_T, M=0, K=0, causal_segment_mask=True))
    elif mode != "hici":
        raise ConfigError(f"unknown eval mode {mode!r}, use 'hici' or 'full'")
    _check_window(cfg, eval_T, "eval_T")
    if not (1 <= stride <= eval_T):
        raise ConfigError(f"stride={stride} must lie in [1, eval_T={eval_T}]")
    if n_tokens < eval_T:
        raise ConfigError(f"text has {n_tokens} tokens, shorter than eval_T={eval_T}")
    return cfg


def eval_ppl(params: HostParams, cfg: HostConfig, ids, eval_T, stride, mode="hici"):
    """Sliding-window perplexity: exp(mean NLL over scored positions).

    Windows start at multiples of `stride`; the first window scores all
    its targets, later windows only their last `stride` targets (the new
    ones). Texts shorter than one window raise. mode='full' evaluates
    with plain causal attention over the whole window (one segment, no
    slots) instead of the training-consistent hierarchical attention.
    """
    ids = np.asarray(ids, dtype=np.int64)
    cfg = eval_config(cfg, ids.shape[0], eval_T, stride, mode)
    nlls = []
    start = 0
    first = True
    while start + eval_T <= ids.shape[0]:
        window = ids[start:start + eval_T]
        with no_grad():
            logits = lm_forward(params, window, cfg)
        nll = nll_rows(logits.data[:-1], window[1:])
        scored = nll if first else nll[-stride:]
        nlls.extend(scored.tolist())
        first = False
        start += stride
    return math.exp(math.fsum(nlls) / len(nlls))
