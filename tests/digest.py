"""Print SHA-256 digests of this checkout's numerical results, one line per item.

Usage: `python3 tests/digest.py` (no options). The script imports `hici`
from the `src/` directory beside it, so the same script run in two
checkouts shows, item by item, whether a change kept every bit. Each line
is `<sha256>  <item>`; graph sizes and the perplexity also print in
plain figures. The items:

- 30-step `host.train` runs on the two benchmark host configs (`train`:
  2 layers, T=512, all_segments; `strict-train`: 1 layer, T=2048,
  preceding_segments): the loss trace, the final parameters, the AdamW
  moments, the last step's leaf gradients and the checkpoint files;
- the parameter gradients of one `MICRO_CFG` module pass,
  `tsum(hici_forward(x))` as in the `gradcheck` workload's warm-up, in
  both scopes;
- `check_module_gradients` errors for seeds 0-10 and
  `check_host_block_gradients` errors, each in both scopes;
- FLOP buckets and graph-node counts (before `backward`) of one training
  step of each host config and of the two module passes;
- `eval_ppl` on one 2048-token window of the `eval` host.

Leaf gradients are hashed as `g + 0.0`, so the sign of a zero does not
count: clipping, AdamW and the gradient-check norms treat both alike.
A run takes about 25 seconds on two cores.

The training hashes depend on the number of BLAS threads, so the script
sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and `MKL_NUM_THREADS` to
1 before numpy loads, as `perfbench/run.py` does, and prints that
setting as its first line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402

from hici import host  # noqa: E402
from hici.analysis import MICRO_CFG  # noqa: E402
from hici.attention import hici_forward, init_hici_params, named_tensors  # noqa: E402
from hici.config import SCOPE_ALL, SCOPE_PRECEDING, HiCIConfig, HostConfig  # noqa: E402
from hici.gradcheck import check_host_block_gradients, check_module_gradients  # noqa: E402
from hici.tensor import (  # noqa: E402
    Tensor, backward, cross_entropy_mean, grad_or_zero, measure_flops, tsum)

TRAIN_STEPS = 30
GRADCHECK_SEEDS = range(11)
SCOPES = (SCOPE_ALL, SCOPE_PRECEDING)
CORPUS_TOKENS = 1 << 16
EVAL_T = 2048


def host_config(n_layers, max_T, scope, seed=0):
    """The host shapes of the benchmark workloads."""
    hici_cfg = HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8, global_scope=scope)
    return HostConfig(vocab_size=host.BYTE_VOCAB, n_layers=n_layers, d=32, ffn_width=128,
                      max_T=max_T, seed=seed, hici=hici_cfg)


HOSTS = {"train": host_config(2, 512, SCOPE_ALL),
         "strict-train": host_config(1, 2048, SCOPE_PRECEDING)}


def scoped(cfg, scope):
    return dataclasses.replace(cfg, global_scope=scope)


def corpus(seed, n_tokens):
    return np.random.default_rng([seed, 1]).integers(0, 256, size=n_tokens)


def sha(*values):
    """SHA-256 over values: arrays by dtype, shape and bytes, anything else by repr."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def named_arrays(arrays):
    """(name, array) pairs of a name -> array mapping, sorted by name."""
    return [x for name in sorted(arrays) for x in (name, arrays[name])]


def leaf_grads(tensors):
    return named_arrays({name: grad_or_zero(p) + 0.0 for name, p in tensors.items()})


def graph_nodes(loss):
    """Autodiff nodes reachable from `loss` through `_parents`, `loss` included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def checkpoint_files(cfg, params, opt, rng):
    """The bytes of every file `save_checkpoint` writes, by relative path."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "ckpt")
        host.save_checkpoint(out, cfg, params, opt, rng, step=TRAIN_STEPS)
        files = {}
        for root, _dirs, names in os.walk(out):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
    return [x for name in sorted(files) for x in (name, files[name])]


def train_items(label, cfg):
    params, opt, rng, trace = host.train(corpus(cfg.seed, CORPUS_TOKENS), cfg, TRAIN_STEPS)
    tensors = host.host_named_tensors(params)
    yield f"{label}: {TRAIN_STEPS}-step loss trace", sha(trace)
    yield f"{label}: final parameters", sha(*named_arrays({n: p.data for n, p in tensors.items()}))
    yield f"{label}: AdamW moments", sha(opt.t, *named_arrays(opt.m), *named_arrays(opt.v))
    yield f"{label}: last step's leaf gradients (g + 0.0)", sha(*leaf_grads(tensors))
    yield f"{label}: checkpoint files", sha(*checkpoint_files(cfg, params, opt, rng))


def step_cost(cfg):
    """FLOP buckets and graph nodes of one training step's forward at init."""
    rng = np.random.default_rng(cfg.seed)
    params = host.init_host_params(cfg, rng)
    window = corpus(cfg.seed, cfg.max_T + 1)
    with measure_flops() as counter:
        loss = cross_entropy_mean(host.lm_forward(params, window[:-1], cfg), window[1:])
    nodes = graph_nodes(loss)
    backward(loss)
    return counter.buckets, nodes


def module_pass(scope):
    """FLOP buckets, graph nodes and leaf gradients of one recorded `MICRO_CFG`
    module pass, the `gradcheck` workload's warm-up."""
    cfg = scoped(MICRO_CFG, scope)
    rng = np.random.default_rng(0)
    params = init_hici_params(cfg, rng)
    x = Tensor(rng.normal(size=(2 * cfg.S, cfg.d)))
    with measure_flops() as counter:
        loss = tsum(hici_forward(x, params, cfg))
    nodes = graph_nodes(loss)
    backward(loss)
    return counter.buckets, nodes, leaf_grads(named_tensors(params))


def items():
    for label, cfg in HOSTS.items():
        yield from train_items(label, cfg)
    buckets, counts = [], []
    for label, cfg in HOSTS.items():
        b, n = step_cost(cfg)
        buckets.append((label, b))
        counts.append(f"{label}={n}")
    for scope in SCOPES:
        b, n, grads = module_pass(scope)
        yield f"module {scope}: leaf gradients (g + 0.0)", sha(*grads)
        buckets.append((scope, b))
        counts.append(f"module-{scope}={n}")
    yield "FLOP buckets", sha(buckets)
    yield f"graph nodes {' '.join(counts)}", sha(counts)
    for scope in SCOPES:
        cfg = scoped(MICRO_CFG, scope)
        errors = [sorted(check_module_gradients(cfg, seed=s).items()) for s in GRADCHECK_SEEDS]
        yield f"check_module_gradients {scope}, seeds 0-10", sha(errors)
        host_cfg = HostConfig(vocab_size=17, n_layers=1, d=cfg.d, ffn_width=2 * cfg.d,
                              max_T=2 * cfg.S, seed=0, hici=cfg)
        yield (f"check_host_block_gradients {scope}",
               sha(sorted(check_host_block_gradients(host_cfg, seed=0).items())))
    cfg = host_config(2, EVAL_T, SCOPE_ALL)
    params = host.init_host_params(cfg, np.random.default_rng(cfg.seed))
    ppl = host.eval_ppl(params, cfg, corpus(cfg.seed, EVAL_T), eval_T=EVAL_T, stride=EVAL_T)
    yield f"eval_ppl {ppl!r}", sha(ppl)


if __name__ == "__main__":
    print(" ".join(f"{var}={os.environ[var]}" for var in BLAS_THREADS), flush=True)
    for item, digest in items():
        print(f"{digest}  {item}", flush=True)
