"""Reverse-mode gradients checked against the central-difference oracle.

For each parameter tensor we compare the full reverse-mode gradient of a
fixed scalar loss (a frozen random weighting of the forward output)
against `finite_diff_grad`, reporting the norm-wise relative error
||g_ad - g_fd|| / max(||g_ad||, ||g_fd||). At 64-bit with the one step
`tensor.FD_STEP` = 1e-5 a correct implementation usually lands around
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

The probes run on every CPU the process may use (`probe_processes`: the
CPUs of `os.sched_getaffinity`, or `os.cpu_count()`, and 1 where
`os.fork` does not exist). The reverse-mode pass runs once, in the
calling process. Then the flat coordinates of every tensor are cut into
P contiguous parts of sizes that differ by at most one; P-1 forked
children each probe one part of every tensor and send the values back
over a pipe, with the FLOP-counter buckets they added, while the caller
probes part 0. Each process so gets the same mix of local, global and
broadcast probes. The caller joins a tensor's parts by copying them in
order, not by adding them, so every value, signed zeros included, is the
bit pattern a one-process check gives; FLOP counts are added. Every
child is reaped before the check returns or raises, and an exception
raised in a child is raised again in the caller with its own type. The
caller still calls `finite_diff_grad` once per tensor (on part 0) and
`hici_forward` for its own stage-0 probes, so wrappers installed on this
module see those calls, but not the children's.

A forked child holds only the thread that forked. With two OpenBLAS
threads running, the children still gave the bits of a one-process
check (Python 3.11, scipy-openblas 0.3.31). Python 3.12 and later warn
when a process with more than one thread forks, and pyproject's
`filterwarnings = error` turns that warning into a test failure, so
there the tests need one BLAS thread (`OPENBLAS_NUM_THREADS=1`). That
case is untested: the tests have run on Python 3.11 only, which does not
warn.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback

import numpy as np

from .attention import hici_forward, hici_stages, init_hici_params, named_tensors, run_stages
from .config import HiCIConfig, HostConfig
from .host import block_forward, block_stages, init_host_params
from .tensor import (
    FLOPS, Tensor, backward, finite_diff_grad, grad_or_zero, mul_const, no_grad, tsum)


def _rel_error(g_ad, g_fd):
    denom = max(float(np.linalg.norm(g_ad)), float(np.linalg.norm(g_fd)), 1e-300)
    return float(np.linalg.norm(g_ad - g_fd)) / denom


def probe_processes():
    """Processes that share the finite-difference probes of one check: the
    CPUs this process may run on, or 1 where `os.fork` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _serve_part(probe, part, write_end):
    """Child side: probe `part`, send the outcome through the pipe, exit.

    A child that cannot send its outcome prints the traceback and sends
    nothing, which the parent reports as a `ChildProcessError`.
    """
    status = 1
    try:
        with os.fdopen(write_end, "wb") as pipe:
            FLOPS.reset()
            try:
                outcome = (None, probe(part), FLOPS.buckets)
            except Exception as exc:   # raised again by the parent
                outcome = (exc, traceback.format_exc(), None)
            pipe.write(pickle.dumps(outcome))
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)   # never unwind into the parent's frames


def _received(data, status, part):
    """Parent side: the probe values a child sent, or raise what it raised."""
    if not data:
        raise ChildProcessError(f"probe process {part} sent nothing (wait status {status})")
    exc, sent, buckets = pickle.loads(data)   # `sent`: the values, or the traceback of `exc`
    if exc is not None:
        raise exc from ChildProcessError(f"probe process {part} raised:\n{sent}")
    FLOPS.merge(buckets)
    return sent


def _run_parts(probe, n_parts):
    """[probe(0), ..., probe(n_parts - 1)]; parts 1 on run in forked children."""
    children = []   # [pid or None once reaped, read end of its pipe]
    try:
        for part in range(1, n_parts):
            read_end, write_end = os.pipe()
            children.append([None, os.fdopen(read_end, "rb")])
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)
                raise
            if pid == 0:
                _serve_part(probe, part, write_end)
            os.close(write_end)
            children[-1][0] = pid
        results = [probe(0)]
        for part, child in enumerate(children, 1):
            data = child[1].read()
            _, status = os.waitpid(child[0], 0)
            child[0] = None
            results.append(_received(data, status, part))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
    n_parts = probe_processes()

    def probe(part):
        """Flat finite differences of part `part` of every tensor, by name."""
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
        return values

    parts = _run_parts(probe, n_parts)
    fds = {name: np.concatenate([values[name] for values in parts]).reshape(p.data.shape)
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
