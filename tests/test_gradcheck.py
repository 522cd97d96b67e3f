"""The staged finite-difference probes of `hici.gradcheck`.

A probe re-runs only the stages downstream of the perturbed tensor, from
the stage inputs of the reverse-mode pass. These tests pin that every
finite-difference value equals the one a full forward gives, bit for
bit, and that a probe runs no stage upstream of its tensor. Those run in
one process, where every probe is recorded. The probes of a check are
shared among forked processes; the last tests pin that a check on three
processes gives the bits and FLOP counts of one on a single process,
that it leaves no child behind, and that it raises what a child raised.
Before those, a test pins that `worst_error` ranks a NaN above any
number, and a strict expected failure keeps in view the oracle's
round-off on the near-zero gradients of `SMALL`.
"""

import dataclasses
import os

import numpy as np
import pytest

from hici import attention, gradcheck
from hici.attention import hici_forward, init_hici_params, named_tensors
from hici.config import SCOPE_ALL, SCOPE_PRECEDING, HiCIConfig
from hici.host import block_forward, block_stages, init_host_params
from hici.tensor import Tensor, finite_diff_grad, measure_flops, mul_const, no_grad, tsum

SMALL = HiCIConfig(S=2, M=1, K=1, H=2, d=8, d_b=4, d_s=2)
SEED = 3


def _one_process(monkeypatch):
    """Run every probe of a check in this process, where it can be recorded."""
    monkeypatch.setattr(gradcheck, "probe_processes", lambda: 1)


def _recorded_fd(monkeypatch):
    """Make `gradcheck` keep every finite-difference gradient it computes."""
    _one_process(monkeypatch)
    recorded = []

    def recording(f, p, **kwargs):
        g = finite_diff_grad(f, p, **kwargs)
        recorded.append(g)
        return g

    monkeypatch.setattr(gradcheck, "finite_diff_grad", recording)
    return recorded


def _full_forward_fd(tensors, forward, weights):
    """Plain central differences of sum(forward() * weights), a full forward per value."""
    out = []
    for p in tensors.values():
        saved = p.data

        def eval_at(arr, _p=p):
            _p.data = arr
            with no_grad():
                return tsum(mul_const(forward(), weights)).item()

        out.append(finite_diff_grad(eval_at, saved))
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
    staged = _recorded_fd(monkeypatch)
    gradcheck.check_host_block_gradients(hici_cfg, seed=SEED)

    # the inputs check_host_block_gradients draws from its seed, in its order
    rng = np.random.default_rng(SEED)
    params = init_host_params(gradcheck.host_block_config(hici_cfg), rng)
    layer = params.layers[0]
    x = Tensor(rng.normal(size=(2 * hici_cfg.S, hici_cfg.d)))
    weights = rng.normal(size=(2 * hici_cfg.S, hici_cfg.d))
    tensors = named_tensors(layer, "layers.0.")
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

    def recording(f, p, **kwargs):
        before = dict(calls)
        g = finite_diff_grad(f, p, **kwargs)
        per_probe.append({k: calls[k] - before[k] for k in calls})
        return g

    monkeypatch.setattr(gradcheck, "finite_diff_grad", recording)
    _one_process(monkeypatch)
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
    assert [len(params_) for params_, _ in module_stages] == [5, 13, 3]
    _assert_each_tensor_in_one_stage(named_tensors(params), module_stages)

    host_cfg = dataclasses.replace(gradcheck.host_block_config(cfg), n_layers=2)
    host_params = init_host_params(host_cfg, np.random.default_rng(SEED))
    layer = host_params.layers[0]
    tensors = named_tensors(layer, "layers.0.")
    _assert_each_tensor_in_one_stage(
        tensors, block_stages(layer, cfg, attention.hici_stages(layer.hici, cfg)))


@pytest.mark.parametrize("errors, worst", [
    ({"a": 1e-9, "b": float("nan")}, "b"),
    ({"a": 1e-9, "b": 2.0, "c": float("nan"), "d": 1e-8}, "c"),
    ({"a": 1e-9, "b": 3e-7, "c": 1e-8}, "b"),
])
def test_worst_error_ranks_a_nan_above_every_number(errors, worst):
    # max(errors.values()) is 1e-9 on the first case: a NaN compares false
    name, error = gradcheck.worst_error(errors)
    assert name == worst and error is errors[worst]


@pytest.mark.xfail(strict=True, reason="round-off, not a wrong derivative: SMALL's global "
                   "gradients are near zero at init, and the fixed absolute round-off of the "
                   "central differences gives 9.7e-4 on global.compress_w1 at seed 3 and 1.0 "
                   "on global.w_q at seed 4")
@pytest.mark.parametrize("seed", [3, 4])
def test_small_module_gradients_are_within_the_bound(seed):
    assert gradcheck.worst_error(gradcheck.check_module_gradients(SMALL, seed=seed))[1] <= 1e-6


# ---------------------------------------------------------------------------
# probes shared among processes

STRICT = dataclasses.replace(SMALL, global_scope=SCOPE_PRECEDING)
CHECKS = {
    "module all_segments": lambda: gradcheck.check_module_gradients(SMALL, seed=SEED),
    "module preceding_segments": lambda: gradcheck.check_module_gradients(
        STRICT, seed=SEED, n_segments=4),
    "host block all_segments": lambda: gradcheck.check_host_block_gradients(SMALL, seed=SEED),
    "host block preceding_segments": lambda: gradcheck.check_host_block_gradients(
        STRICT, seed=SEED),
}
REL_ERROR = gradcheck._rel_error


class ProbeFailure(Exception):
    """Raised by a probe on purpose."""


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _checked_on(monkeypatch, n_processes, check):
    """Errors, merged finite-difference arrays and FLOP buckets of `check`
    run on `n_processes` processes."""
    monkeypatch.setattr(gradcheck, "probe_processes", lambda: n_processes)
    compared = []

    def recording(g_ad, g_fd):
        compared.append(g_fd)
        return REL_ERROR(g_ad, g_fd)

    monkeypatch.setattr(gradcheck, "_rel_error", recording)
    with measure_flops() as counter:
        errors = check()
    return errors, compared, counter.buckets


@pytest.mark.parametrize("check", list(CHECKS))
def test_three_processes_give_the_bits_and_flops_of_one(monkeypatch, check):
    # three parts cut tensors of 1, 2, 4, ... values unevenly, and some
    # parts empty; forced, so a one-CPU machine runs them as well
    errors, fds, buckets = _checked_on(monkeypatch, 1, CHECKS[check])
    errors_3, fds_3, buckets_3 = _checked_on(monkeypatch, 3, CHECKS[check])
    _assert_no_child_left()
    assert list(errors_3) == list(errors)
    assert all(a.hex() == b.hex() for a, b in zip(errors_3.values(), errors.values()))
    assert len(fds_3) == len(fds)
    for got, want in zip(fds_3, fds):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert buckets_3 == buckets and sum(b["matmul"] for b in buckets.values()) > 0


def _failing_probe(monkeypatch, where):
    """Make `finite_diff_grad` fail in the parent or in a child."""
    parent = os.getpid()

    def failing(f, p, **kwargs):
        in_parent = os.getpid() == parent
        if where == "child raises" and not in_parent:
            raise ProbeFailure(f"probe of {p.shape} in a child")
        if where == "parent raises" and in_parent:
            raise ProbeFailure("probe in the parent")
        if where == "child exits" and not in_parent:
            os._exit(3)
        return finite_diff_grad(f, p, **kwargs)

    monkeypatch.setattr(gradcheck, "finite_diff_grad", failing)


@pytest.mark.parametrize("where, raised", [
    ("nowhere", None),
    ("child raises", ProbeFailure),
    ("parent raises", ProbeFailure),
    ("child exits", ChildProcessError),
])
def test_no_child_is_left_after_a_check(monkeypatch, where, raised):
    monkeypatch.setattr(gradcheck, "probe_processes", lambda: 3)
    _failing_probe(monkeypatch, where)
    if raised is None:
        assert len(CHECKS["module all_segments"]()) == 21
    else:
        with pytest.raises(raised):
            CHECKS["module all_segments"]()
    _assert_no_child_left()


def test_a_child_exception_is_raised_with_its_type_and_traceback(monkeypatch):
    monkeypatch.setattr(gradcheck, "probe_processes", lambda: 2)
    _failing_probe(monkeypatch, "child raises")
    with pytest.raises(ProbeFailure, match="in a child") as info:
        CHECKS["module all_segments"]()
    cause = info.value.__cause__
    assert isinstance(cause, ChildProcessError)
    assert "probe process 1 raised" in str(cause) and "ProbeFailure" in str(cause)
