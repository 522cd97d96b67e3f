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
"""

from __future__ import annotations

import numpy as np

from .attention import hici_forward, init_hici_params, named_tensors
from .config import HiCIConfig, HostConfig
from .host import block_forward, host_named_tensors, init_host_params
from .tensor import Tensor, backward, finite_diff_grad, grad_or_zero, mul_const, no_grad, tsum


def _rel_error(g_ad, g_fd):
    denom = max(float(np.linalg.norm(g_ad)), float(np.linalg.norm(g_fd)), 1e-300)
    return float(np.linalg.norm(g_ad - g_fd)) / denom


def _check_tensors(tensors, forward_fn, h):
    """Reverse-mode vs. finite differences for every named tensor.

    `forward_fn` must rebuild the loss from current parameter data each
    call (the probe mutates tensors in place between evaluations).
    """
    loss = forward_fn()
    backward(loss)
    ad_grads = {name: grad_or_zero(p).copy() for name, p in tensors.items()}

    errors = {}
    for name, p in tensors.items():
        saved = p.data

        def eval_at(arr, _p=p):
            _p.data = arr
            with no_grad():
                value = forward_fn().item()
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

    def forward_fn():
        return tsum(mul_const(hici_forward(x, params, cfg), weights))

    return _check_tensors(named_tensors(params), forward_fn, h)


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

    def forward_fn():
        return tsum(mul_const(block_forward(x, layer, host_cfg.hici), weights))

    return _check_tensors(tensors, forward_fn, h)
