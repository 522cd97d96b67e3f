"""Reverse-mode gradients checked against the central-difference oracle.

For each parameter tensor we compare the full reverse-mode gradient of a
fixed scalar loss (a frozen random weighting of the forward output)
against `finite_diff_grad`, reporting the norm-wise relative error
||g_ad - g_fd|| / max(||g_ad||, ||g_fd||). At 64-bit with the one step
`FD_STEP` = 1e-5 a correct implementation usually lands around
1e-9, and an error above 1e-6 usually means a wrong derivative. Not
always: the finite-difference round-off is fixed in absolute terms, so
on a gradient whose norm is near zero it can exceed 1e-6 with correct
derivatives. Module seed 11 on the micro config gives 1.39e-6 on
`global.w_q`. A bound is checked on `worst_error`, which ranks a NaN
worst.

The probes are staged. The forward is an ordered list of stages (for
the module: construct, which also pools, integrate and broadcast; for a
host block also ln1 before and the two residuals after), each reading
only its own parameters. A probe of a tensor re-runs the forward only
from that tensor's stage, starting from the input the stage had in the
reverse-mode pass. That input is a deterministic function of x and of
earlier stages' parameters, which the probe does not touch (grad mode
only adds graph edges, not arithmetic), so it is the same array a full
forward would recompute, and every finite-difference value is
bit-identical to one taken over full forwards. At the micro config a
module check runs 1,089 construct, 2,131 global and 3,667 broadcast
stages instead of 3,667 of each: a probe of a global parameter starts
from the pooled statistics and pools nothing. These counts are totals
over all the processes below.

The reverse-mode pass runs once, in the caller; the probes run on every
CPU. The flat coordinates of every tensor are cut into
`parallel.processes()` contiguous parts of sizes that differ by at most
one, and `parallel.run_parts` probes part j of every tensor in process
j, so each process gets the same mix of local, global and broadcast
probes. Parts are joined by copying, so every value, signed zeros
included, has the bits of a one-process check; a forked part sends back
the FLOP buckets it added. Wrappers installed on this module see only
the caller's calls of `finite_diff_grad` (once per tensor, on part 0)
and `hici_forward`.
"""

from __future__ import annotations

import math

import numpy as np

from . import parallel
from .attention import hici_forward, hici_stages, init_hici_params, named_tensors, run_stages
from .config import HiCIConfig, HostConfig
from .host import block_forward, block_stages, init_host_params
from .tensor import FLOPS, Tensor, backward, grad_or_zero, mul_const, no_grad, tsum

FD_STEP = 1e-5   # the central-difference step of every gradient check


def _rel_error(g_ad, g_fd):
    denom = max(float(np.linalg.norm(g_ad)), float(np.linalg.norm(g_fd)), 1e-300)
    return float(np.linalg.norm(g_ad - g_fd)) / denom


def finite_diff_grad(f, p, coords=None):
    """Central-difference gradient of a scalar function, one coordinate at a time.

    `f` maps a numpy array (same shape as `p`) to a float and must not
    retain references to its argument: the probe array is mutated in place
    between calls. This is the independent check that reverse-mode results
    are measured against. `coords` (a range of flat indices, all of them
    by default) picks the coordinates probed; the others stay 0.
    """
    p = np.array(p.data if isinstance(p, Tensor) else p, dtype=np.float64)
    g = np.zeros_like(p)
    flat = p.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size) if coords is None else coords:
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = float(f(p))
        flat[i] = orig - FD_STEP
        f_minus = float(f(p))
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return g


def _check_tensors(tensors, forward, stages, rng, shape):
    """Reverse-mode vs. finite differences for every named tensor.

    The loss is sum(forward(x) * weights), x and then the weights drawn
    from `rng` as standard normal arrays of `shape`. `stages` is `forward`
    as (parameters, stage) pairs in order, and each named tensor is a
    parameter of one of them. The probes mutate tensors in place between
    evaluations; a probe of a stage-k tensor runs stages k onward from the
    input stage k had in the reverse-mode pass. A probe of a stage-0
    tensor runs `forward` itself, so the full forward the check measures
    is the function the rest of the program calls.
    """
    x = Tensor(rng.normal(size=shape))
    weights = rng.normal(size=shape)

    def loss_of(out):
        return tsum(mul_const(out, weights))

    inputs = []
    state = x
    for _, stage in stages:
        inputs.append(state)
        state = stage(state)
    backward(loss_of(state))
    ad_grads = {name: grad_or_zero(p).copy() for name, p in tensors.items()}
    stage_of = {id(p): k for k, (params, _) in enumerate(stages) for p in params}
    n_parts = parallel.processes()

    def probe(part):
        """Flat finite differences of part `part` of every tensor, by name, and
        in a forked part (1 on) the FLOP buckets it added."""
        if part:
            FLOPS.reset()
        values = {}
        for name, p in tensors.items():
            saved = p.data
            lo, hi = (saved.size * j // n_parts for j in (part, part + 1))

            def eval_at(arr, _p=p, _k=stage_of[id(p)]):
                _p.data = arr
                with no_grad():
                    out = forward(x) if _k == 0 else run_stages(stages[_k:], inputs[_k])
                    return loss_of(out).item()

            fd = finite_diff_grad(eval_at, saved, coords=range(lo, hi))
            p.data = saved
            values[name] = fd.reshape(-1)[lo:hi]
        return values, FLOPS.buckets if part else None

    parts = parallel.run_parts(probe, n_parts)
    for _, buckets in parts[1:]:
        FLOPS.merge(buckets)
    fds = {name: np.concatenate([values[name] for values, _ in parts]).reshape(p.data.shape)
           for name, p in tensors.items()}
    return {name: _rel_error(ad_grads[name], fds[name]) for name in tensors}


def worst_error(errors):
    """The (name, error) pair of the largest error in `errors`, a NaN above any number."""
    name = max(errors, key=lambda k: (math.isnan(errors[k]), errors[k]))
    return name, errors[name]


def check_module_gradients(cfg: HiCIConfig, seed=0, n_segments=2):
    """Errors for every parameter tensor of one attention module, over a pass of
    `n_segments` segments."""
    rng = np.random.default_rng(seed)
    params = init_hici_params(cfg, rng)
    return _check_tensors(named_tensors(params), lambda x: hici_forward(x, params, cfg),
                          hici_stages(params, cfg), rng, (n_segments * cfg.S, cfg.d))


def host_block_config(cfg: HiCIConfig) -> HostConfig:
    """The one-layer host of `check_host_block_gradients`; its vocabulary and
    max_T set how many numbers `init_host_params` draws before x."""
    return HostConfig(vocab_size=17, n_layers=1, d=cfg.d, ffn_width=2 * cfg.d,
                      max_T=2 * cfg.S, seed=0, hici=cfg)


def check_host_block_gradients(cfg: HiCIConfig, seed=0):
    """Errors for every tensor of the residual block of `host_block_config(cfg)`,
    over a pass of two segments."""
    rng = np.random.default_rng(seed)
    layer = init_host_params(host_block_config(cfg), rng).layers[0]
    stages = block_stages(layer, cfg, hici_stages(layer.hici, cfg))
    return _check_tensors(named_tensors(layer, "layers.0."),
                          lambda x: block_forward(x, layer, cfg), stages, rng, (2 * cfg.S, cfg.d))
