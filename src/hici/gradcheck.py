"""Reverse-mode gradients checked against the central-difference oracle.

For each parameter tensor we compare the full reverse-mode gradient of a
fixed scalar loss (a frozen random weighting of the forward output)
against `finite_diff_grad`, reporting the norm-wise relative error
||g_ad - g_fd|| / max(||g_ad||, ||g_fd||). At 64-bit with h = 1e-5 a
correct implementation usually lands around 1e-9, and an error above
1e-6 usually means a wrong derivative. Not always: the finite-difference
round-off is fixed in absolute terms, so on a gradient whose norm is
near zero it can exceed 1e-6 with correct derivatives. Module seed 11
on the micro config gives 1.39e-6 on `global.w_q`.

The probes are staged. The forward is an ordered list of stages (for
the module: local, the parameter-free pooling, global and broadcast; for
a host block also ln1 before and the two residuals after), each reading
only its own parameters. A probe of a tensor re-runs the forward only
from that tensor's stage, starting from the input the stage had in the
reverse-mode pass. That input is a deterministic function of x and of
earlier stages' parameters, which the probe does not touch (grad mode
only adds graph edges, not arithmetic), so it is the same array a full
forward would recompute, and every finite-difference value is
bit-identical to one taken over full forwards. At the micro config a
module check runs 1,089 local, 1,089 pool, 2,131 global and 3,667
broadcast stages instead of 3,667 of each: a probe of a global parameter
starts from the pooled statistics and pools nothing.
"""

from __future__ import annotations

import numpy as np

from .attention import hici_forward, hici_stages, init_hici_params, named_tensors, run_stages
from .config import HiCIConfig, HostConfig
from .host import block_forward, block_stages, host_named_tensors, init_host_params
from .tensor import Tensor, backward, finite_diff_grad, grad_or_zero, mul_const, no_grad, tsum


def _rel_error(g_ad, g_fd):
    denom = max(float(np.linalg.norm(g_ad)), float(np.linalg.norm(g_fd)), 1e-300)
    return float(np.linalg.norm(g_ad - g_fd)) / denom


def _check_tensors(tensors, forward, stages, x, weights, h):
    """Reverse-mode vs. finite differences for every named tensor.

    The loss is sum(forward(x) * weights). `stages` is `forward` as
    (parameters, stage) pairs in order, and each named tensor is a
    parameter of one of them. The probes mutate tensors in place between
    evaluations; a probe of a stage-k tensor runs stages k onward from the
    input stage k had in the reverse-mode pass. A probe of a stage-0
    tensor runs `forward` itself, so the full forward the check measures
    is the function the rest of the program calls.
    """
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

    errors = {}
    for name, p in tensors.items():
        saved = p.data
        k = stage_of[id(p)]

        def eval_at(arr, _p=p, _k=k):
            _p.data = arr
            with no_grad():
                out = forward(x) if _k == 0 else run_stages(stages[_k:], inputs[_k])
                value = loss_of(out).item()
            return value

        fd = finite_diff_grad(eval_at, saved, h=h)
        p.data = saved
        errors[name] = _rel_error(ad_grads[name], fd)
    return errors


def check_module_gradients(cfg: HiCIConfig, seed=0, h=1e-5, n_segments=2):
    """Errors for every parameter tensor of one attention module.

    The loss is sum(output * C) for a frozen random C over a forward pass
    with n_segments segments.
    """
    rng = np.random.default_rng(seed)
    params = init_hici_params(cfg, rng)
    t = n_segments * cfg.S
    x = Tensor(rng.normal(size=(t, cfg.d)))
    weights = rng.normal(size=(t, cfg.d))
    return _check_tensors(named_tensors(params), lambda x_: hici_forward(x_, params, cfg),
                          hici_stages(params, cfg), x, weights, h)


def check_host_block_gradients(host_cfg: HostConfig, seed=0, h=1e-5):
    """Errors for every tensor of one full residual block of the host."""
    rng = np.random.default_rng(seed)
    params = init_host_params(host_cfg, rng)
    layer = params.layers[0]
    t = 2 * host_cfg.hici.S if host_cfg.max_T >= 2 * host_cfg.hici.S else host_cfg.hici.S
    x = Tensor(rng.normal(size=(t, host_cfg.d)))
    weights = rng.normal(size=(t, host_cfg.d))

    tensors = {name: p for name, p in host_named_tensors(params).items()
               if name.startswith("layers.0.")}
    stages = block_stages(layer, host_cfg.hici, hici_stages(layer.hici, host_cfg.hici))
    return _check_tensors(tensors, lambda x_: block_forward(x_, layer, host_cfg.hici),
                          stages, x, weights, h)
