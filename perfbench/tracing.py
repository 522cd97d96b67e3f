"""Spans and counters around the public functions of the hici layers.

A `Tracer` replaces a function at the attribute its caller looks it up
under (``hici.host.backward`` is the name ``host.train`` calls, for
example) and puts every original back on exit, so no source under
``src/`` changes. Spans are kept in memory as
``[name, start, end, parent index, op id]`` and written once at the end.
"""

from __future__ import annotations

import functools
import os
import time

# Layer functions timed with calls, inclusive seconds and self seconds.
TIMED_SELF = (
    "attention.local_construct", "attention.integrate_global", "attention.broadcast",
    "attention.hici_forward", "host.lm_forward", "host.block_forward", "host.train",
    "host.eval_ppl", "gradcheck.check_module_gradients",
)
# Layer functions timed with calls and inclusive seconds only.
TIMED = (
    "host.AdamW.step", "host.clip_grad_norm", "host.save_checkpoint",
    "host.load_checkpoint", "tensor.backward", "tensor.cross_entropy_mean",
    "serialize.save_tensors", "serialize.load_tensors", "gradcheck.finite_diff_grad",
)
ROOT = "op"


class TraceError(RuntimeError):
    """A wrapper the workload must exercise recorded no calls."""


def graph_nodes(loss):
    """Number of autodiff nodes reachable from `loss` through `_parents`."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Span recorder plus named counters; a context manager that unpatches."""

    def __init__(self):
        self.spans = []
        self.stats = {}    # name -> [calls, inclusive s, self s]
        self.counts = {}
        self.op_id = -1
        self._stack = []   # [span index, start, seconds covered by children]
        self._originals = []

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), time.perf_counter(), 0.0])
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])

    def exit(self):
        end = time.perf_counter()
        index, start, children = self._stack.pop()
        span = self.spans[index]
        span[1], span[2] = start, end
        if self._stack:
            self._stack[-1][2] += end - start
        stat = self.stats.setdefault(span[0], [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += end - start
        stat[2] += end - start - children

    def run_op(self, fn):
        """Call `fn` as the root span of a new op; returns (result, seconds)."""
        self.op_id += 1
        index = len(self.spans)
        self.enter(ROOT)
        try:
            out = fn()
        finally:
            self.exit()
        _, start, end, _, _ = self.spans[index]
        return out, end - start

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def patch(self, owner, attr, name, before=None, after=None):
        """Replace `owner.attr` with a wrapper that records a span `name`.

        `before(*args, **kwargs)` runs outside the span; `after(result,
        *args, **kwargs)` runs after it closes.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install_layers(self):
        """Wrap the public functions of every traced hici layer."""
        from hici import attention, gradcheck, host

        for fn in ("local_construct", "integrate_global", "broadcast"):
            self.patch(attention, fn, f"attention.{fn}")
        self.patch(host, "hici_forward", "attention.hici_forward")
        self.patch(gradcheck, "hici_forward", "attention.hici_forward",
                   before=lambda *a, **k: self.count("gradcheck.forwards", 1))
        for fn in ("train", "eval_ppl", "lm_forward", "block_forward", "clip_grad_norm",
                   "save_checkpoint", "load_checkpoint"):
            self.patch(host, fn, f"host.{fn}")
        self.patch(host.AdamW, "step", "host.AdamW.step")
        for owner in (host, gradcheck):
            self.patch(owner, "backward", "tensor.backward",
                       before=lambda loss: self.count("tensor.graph_nodes", graph_nodes(loss)))
        self.patch(host, "cross_entropy_mean", "tensor.cross_entropy_mean")
        self.patch(host, "save_tensors", "serialize.save_tensors",
                   after=lambda _out, prefix, *a, **k: self.count(
                       "serialize.bytes_written", os.path.getsize(f"{prefix}.bin")))
        self.patch(host, "load_tensors", "serialize.load_tensors",
                   after=lambda _out, prefix: self.count(
                       "serialize.bytes_read", os.path.getsize(f"{prefix}.bin")))
        self.patch(gradcheck, "check_module_gradients", "gradcheck.check_module_gradients")
        self.patch(gradcheck, "finite_diff_grad", "gradcheck.finite_diff_grad")
        return self

    def require(self, workload, names):
        missing = [n for n in names if self.calls(n) == 0]
        if missing:
            raise TraceError(f"workload {workload}: traced wrappers recorded no calls: "
                             f"{', '.join(missing)}")

    def close(self):
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def self_time_table(self, n_ops):
        """Rows (name, calls/op, s/op, self s/op, self share of the op)."""
        op_s = self.stats[ROOT][1]
        rows = [(name, calls / n_ops, s / n_ops, self_s / n_ops, self_s / op_s)
                for name, (calls, s, self_s) in self.stats.items()]
        return sorted(rows, key=lambda r: -r[3])

    def span_records(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op in self.spans]
