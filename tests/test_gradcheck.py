"""The staged finite-difference probes of `hici.gradcheck`.

A probe re-runs only the stages downstream of the perturbed tensor, from
the stage inputs of the reverse-mode pass. These tests pin that every
finite-difference value equals the one a full forward gives, bit for
bit, and that a probe runs no stage upstream of its tensor.
"""

import dataclasses

import numpy as np
import pytest

from hici import attention, gradcheck
from hici.attention import hici_forward, init_hici_params, named_tensors
from hici.config import SCOPE_ALL, SCOPE_PRECEDING, HiCIConfig, HostConfig
from hici.host import block_forward, block_stages, host_named_tensors, init_host_params
from hici.tensor import Tensor, finite_diff_grad, mul_const, no_grad, tsum

SMALL = HiCIConfig(S=2, M=1, K=1, H=2, d=8, d_b=4, d_s=2)
SEED = 3


def _recorded_fd(monkeypatch):
    """Make `gradcheck` keep every finite-difference gradient it computes."""
    recorded = []

    def recording(f, p, h=1e-5):
        g = finite_diff_grad(f, p, h=h)
        recorded.append(g)
        return g

    monkeypatch.setattr(gradcheck, "finite_diff_grad", recording)
    return recorded


def _full_forward_fd(tensors, forward, weights, h=1e-5):
    """Plain central differences of sum(forward() * weights), a full forward per value."""
    out = []
    for p in tensors.values():
        saved = p.data

        def eval_at(arr, _p=p):
            _p.data = arr
            with no_grad():
                return tsum(mul_const(forward(), weights)).item()

        out.append(finite_diff_grad(eval_at, saved, h=h))
        p.data = saved
    return out


def _assert_all_equal(staged, full):
    assert len(staged) == len(full)
    for got, want in zip(staged, full):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cfg, n_segments", [
    (SMALL, 2),
    (SMALL, 4),
    (dataclasses.replace(SMALL, global_scope=SCOPE_PRECEDING), 2),
    (dataclasses.replace(SMALL, global_scope=SCOPE_PRECEDING), 4),
    (dataclasses.replace(SMALL, M=0, K=0), 2),
    (dataclasses.replace(SMALL, K=0), 2),
    (dataclasses.replace(SMALL, K=0, global_scope=SCOPE_PRECEDING), 4),
])
def test_module_staged_probes_equal_full_forward_probes(monkeypatch, cfg, n_segments):
    staged = _recorded_fd(monkeypatch)
    gradcheck.check_module_gradients(cfg, seed=SEED, n_segments=n_segments)

    # the inputs check_module_gradients draws from its seed, in its order
    rng = np.random.default_rng(SEED)
    params = init_hici_params(cfg, rng)
    t = n_segments * cfg.S
    x = Tensor(rng.normal(size=(t, cfg.d)))
    weights = rng.normal(size=(t, cfg.d))
    full = _full_forward_fd(named_tensors(params), lambda: hici_forward(x, params, cfg), weights)
    _assert_all_equal(staged, full)


@pytest.mark.parametrize("scope", [SCOPE_ALL, SCOPE_PRECEDING])
def test_host_block_staged_probes_equal_full_forward_probes(monkeypatch, scope):
    hici_cfg = dataclasses.replace(SMALL, global_scope=scope)
    host_cfg = HostConfig(vocab_size=17, n_layers=1, d=hici_cfg.d, ffn_width=2 * hici_cfg.d,
                          max_T=2 * hici_cfg.S, seed=0, hici=hici_cfg)
    staged = _recorded_fd(monkeypatch)
    gradcheck.check_host_block_gradients(host_cfg, seed=SEED)

    # the inputs check_host_block_gradients draws from its seed, in its order
    rng = np.random.default_rng(SEED)
    params = init_host_params(host_cfg, rng)
    layer = params.layers[0]
    x = Tensor(rng.normal(size=(2 * hici_cfg.S, hici_cfg.d)))
    weights = rng.normal(size=(2 * hici_cfg.S, hici_cfg.d))
    tensors = {name: p for name, p in host_named_tensors(params).items()
               if name.startswith("layers.0.")}
    full = _full_forward_fd(tensors, lambda: block_forward(x, layer, hici_cfg), weights)
    _assert_all_equal(staged, full)


@pytest.mark.parametrize("scope", [SCOPE_ALL, SCOPE_PRECEDING])
def test_probes_run_no_stage_upstream_of_their_tensor(monkeypatch, scope):
    cfg = dataclasses.replace(SMALL, global_scope=scope)
    calls = {"local_construct": 0, "pooled_stats": 0, "integrate_global": 0}

    def counted(name):
        original = getattr(attention, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(attention, name, wrapper)

    for name in calls:
        counted(name)
    per_probe = []

    def recording(f, p, h=1e-5):
        before = dict(calls)
        g = finite_diff_grad(f, p, h=h)
        per_probe.append({k: calls[k] - before[k] for k in calls})
        return g

    monkeypatch.setattr(gradcheck, "finite_diff_grad", recording)
    gradcheck.check_module_gradients(cfg, seed=SEED)

    tensors = named_tensors(init_hici_params(cfg, np.random.default_rng(SEED)))
    assert len(per_probe) == len(tensors)
    for (name, p), delta in zip(tensors.items(), per_probe):
        evaluations = 2 * p.data.size
        if name.startswith("broadcast."):
            assert delta == {"local_construct": 0, "pooled_stats": 0,
                             "integrate_global": 0}, name
        elif name.startswith("global."):
            assert delta == {"local_construct": 0, "pooled_stats": 0,
                             "integrate_global": evaluations}, name
        else:
            assert delta == {"local_construct": evaluations, "pooled_stats": evaluations,
                             "integrate_global": evaluations}, name


def _assert_each_tensor_in_one_stage(tensors, stages):
    listed = [id(p) for params, _ in stages for p in params]
    assert sorted(listed) == sorted(id(p) for p in tensors.values())


@pytest.mark.parametrize("cfg", [
    SMALL,
    dataclasses.replace(SMALL, global_scope=SCOPE_PRECEDING),
    dataclasses.replace(SMALL, K=0),
    dataclasses.replace(SMALL, M=0, K=0),
])
def test_each_named_tensor_sits_in_exactly_one_stage(cfg):
    # a probe reruns the stages from its tensor's own; a tensor listed in two
    # stages would be probed from the later one and miss its earlier use
    params = init_hici_params(cfg, np.random.default_rng(SEED))
    module_stages = attention.hici_stages(params, cfg)
    assert [len(params_) for params_, _ in module_stages] == [5, 0, 13, 3]
    _assert_each_tensor_in_one_stage(named_tensors(params), module_stages)

    host_cfg = HostConfig(vocab_size=17, n_layers=2, d=cfg.d, ffn_width=2 * cfg.d,
                          max_T=2 * cfg.S, seed=0, hici=cfg)
    host_params = init_host_params(host_cfg, np.random.default_rng(SEED))
    layer = host_params.layers[0]
    tensors = {name: p for name, p in host_named_tensors(host_params).items()
               if name.startswith("layers.0.")}
    _assert_each_tensor_in_one_stage(
        tensors, block_stages(layer, cfg, attention.hici_stages(layer.hici, cfg)))
