"""Dense float64 tensors with reverse-mode differentiation.

Every value flowing through the attention module is a `Tensor`: a
C-contiguous float64 numpy array plus an optional autodiff record. Each
primitive op returns a fresh Tensor; when gradients are enabled and an
input requires grad, the op attaches a closure that propagates the
output adjoint to its inputs. `backward(loss)` replays those closures in
reverse topological order. A graph can be differentiated once; calling
`backward` a second time without a new forward pass raises instead of
silently accumulating garbage.

`attention` is the one multi-head attention op: it runs every head of
B stacked blocks (segments) in a single graph node with a closed-form
backward, so a module pass builds the same small graph at any length.

Reductions that feed the global statistics (`mean_rows`, `std_rows`) use
`math.fsum`, which is exactly rounded and therefore invariant to the row
order of its input. That makes segment-permutation invariance of the
pooled statistics hold bit-for-bit, not just to rounding error.

A process-wide FLOP counter (`FLOPS`) can be armed to measure the actual
arithmetic issued by a forward pass. Matmuls are charged 2*m*k*n
(multiply-add = 2 FLOPs); elementwise ops are charged with the
per-element costs listed next to each op. Counts are split into a
"matmul" and an "other" bucket per scope so analytic cost models can be
checked against the terms they actually cover.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GraphError(RuntimeError):
    """Autodiff graph misuse (double backward, non-scalar loss, ...)."""


# ---------------------------------------------------------------------------
# gradient mode

_GRAD_MODE = [True]


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    _GRAD_MODE.append(False)
    try:
        yield
    finally:
        _GRAD_MODE.pop()


# ---------------------------------------------------------------------------
# FLOP accounting

class FlopCounter:
    """Tallies forward-pass FLOPs per scope, split matmul vs. other."""

    def __init__(self):
        self.enabled = False
        self.buckets = {}
        self._scope = ["uncategorized"]

    def reset(self):
        self.buckets = {}

    def add(self, kind, n):
        if not self.enabled:
            return
        cat = self._scope[-1]
        b = self.buckets.setdefault(cat, {"matmul": 0, "other": 0})
        b[kind] += n

    def total(self, category=None, kind=None):
        cats = [category] if category is not None else list(self.buckets)
        tot = 0
        for c in cats:
            b = self.buckets.get(c, {})
            if kind is None:
                tot += sum(b.values())
            else:
                tot += b.get(kind, 0)
        return tot


FLOPS = FlopCounter()


@contextmanager
def flop_scope(name):
    FLOPS._scope.append(name)
    try:
        yield
    finally:
        FLOPS._scope.pop()


@contextmanager
def measure_flops():
    """Arm the global counter from a clean slate inside the block."""
    FLOPS.reset()
    FLOPS.enabled = True
    try:
        yield FLOPS
    finally:
        FLOPS.enabled = False


# ---------------------------------------------------------------------------
# Tensor

class Tensor:
    """A C-contiguous float64 array plus an optional autodiff record.

    Tensors are immutable by convention once constructed: ops never write
    into their inputs, so sharing a Tensor across readers is safe. The
    recorded graph (parents + backward closure) is confined to the single
    forward/backward pass that created it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def _acc(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data):
    """A leaf Tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    """Interior graph node; records edges only to grad-requiring parents."""
    out = Tensor(data)
    if _GRAD_MODE[0]:
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
            out._backward = backward_fn
    return out


def grad_or_zero(t):
    """Accumulated gradient, or zeros if the tensor never joined a graph."""
    return t.grad if t.grad is not None else np.zeros_like(t.data)


def backward(loss):
    """Reverse-mode sweep from a scalar loss node.

    Fills `.grad` on every grad-requiring tensor reachable from `loss`;
    parameters that did not participate keep grad None (read them through
    `grad_or_zero`). The recorded graph is single-use.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._spent:
        raise GraphError("backward already ran for this graph; run a new forward pass")

    topo = []
    visited = {id(loss)}
    stack = [(loss, iter(loss._parents))]
    while stack:
        node, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            topo.append(node)
            stack.pop()
        elif id(nxt) not in visited:
            visited.add(id(nxt))
            if nxt._spent:
                raise GraphError("backward already ran for this graph; run a new forward pass")
            stack.append((nxt, iter(nxt._parents)))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node._spent = True


# ---------------------------------------------------------------------------
# primitive ops

def matmul(a, b):
    """Matrix product a[..., m, k] @ b[k, n]; leading axes of `a` stack blocks.

    FLOPs: 2*m*k*n per block.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    k, n = b.data.shape
    FLOPS.add("matmul", 2 * a.data.size * n)
    out = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._acc(g @ b.data.T)
        if b.requires_grad:
            b._acc(a.data.reshape(-1, k).T @ g.reshape(-1, n))

    return _make(out, (a, b), bwd)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    FLOPS.add("other", a.data.size)
    out = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._acc(g)
        if b.requires_grad:
            b._acc(g)

    return _make(out, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: shape mismatch {a.data.shape} vs {b.data.shape}")
    FLOPS.add("other", a.data.size)
    out = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            a._acc(g)
        if b.requires_grad:
            b._acc(-g)

    return _make(out, (a, b), bwd)


def mul_const(a, c):
    """Elementwise product with a non-differentiable constant (array or scalar)."""
    a = _as_tensor(a)
    c = np.asarray(c, dtype=np.float64)
    FLOPS.add("other", a.data.size)
    out = a.data * c

    def bwd(g):
        a._acc(g * c)

    return _make(out, (a,), bwd)


def scale(a, s):
    """Product with a single-element gate tensor; differentiable in both."""
    a, s = _as_tensor(a), _as_tensor(s)
    if s.data.size != 1:
        raise ShapeError(f"scale: gate must hold one value, got shape {s.data.shape}")
    FLOPS.add("other", a.data.size)
    sval = s.data.reshape(())
    out = a.data * sval

    def bwd(g):
        if a.requires_grad:
            a._acc(g * sval)
        if s.requires_grad:
            s._acc(np.sum(g * a.data).reshape(s.data.shape))

    return _make(out, (a, s), bwd)


def _softmax(a, visible=None):
    """Softmax over the last axis with max subtraction; masked entries get 0.

    `visible` is an optional boolean mask shaped like the trailing axes
    of `a`; every row must keep at least one visible entry.
    """
    if visible is None:
        e = np.exp(a - a.max(axis=-1, keepdims=True))
    else:
        visible = np.asarray(visible, dtype=bool)
        if visible.shape != a.shape[a.ndim - visible.ndim:]:
            raise ShapeError(f"softmax: mask shape {visible.shape} vs scores {a.shape}")
        if not visible.any(axis=-1).all():
            raise ShapeError("softmax: some row has no visible entry")
        masked = np.where(visible, a, -np.inf)
        shifted = masked - masked.max(axis=-1, keepdims=True)
        e = np.where(visible, np.exp(np.where(visible, shifted, 0.0)), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(a, visible=None):
    """Row-wise softmax with max subtraction for stability.

    `visible` is an optional boolean mask of the same shape; masked-out
    entries get probability zero and the row normalizes over the visible
    ones. Every row must keep at least one visible entry.
    FLOPs: ~5 per element.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows: need a 2-d tensor, got shape {a.data.shape}")
    FLOPS.add("other", 5 * a.data.size)
    p = _softmax(a.data, visible)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        a._acc(p * (g - dot))

    return _make(p, (a,), bwd)


def attention(q, k, v, n_heads, visible=None, probe=None):
    """Multi-head scaled dot-product attention over B stacked blocks.

    `k` and `v` are (B, Lk, W); `q` is (B, Lq, W), or (Lq, W) when every
    block shares it. Heads split W contiguously into slices of width dk,
    scores are scaled by 1/sqrt(dk), and the result is (B, Lq, W) with no
    output projection. `visible` is an optional (Lq, Lk) boolean mask
    shared by every block and head. `probe`, a diagnostic hook, is
    called with the probabilities, shape (B, n_heads, Lq, Lk).

    Backward is closed form: with dP = dO V^T the score adjoint is
    P * (dP - rowsum(dP * P)) (Dao et al. 2022). FLOPs per block and head
    are those of the unfused chain: 4*Lq*Lk*dk matmul (scores and P V)
    and 6*Lq*Lk other (scaling and softmax).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (k.data.ndim != 3 or v.data.shape != k.data.shape
            or q.data.shape[-1] != k.data.shape[2]
            or q.data.ndim not in (2, 3) or q.data.shape[:-2] not in ((), k.data.shape[:1])):
        raise ShapeError(
            f"attention: incompatible q/k/v shapes {q.data.shape} {k.data.shape} {v.data.shape}")
    n_blocks, n_keys, width = k.data.shape
    if width % n_heads != 0:
        raise ShapeError(f"attention width {width} not divisible by {n_heads} heads")
    dk = width // n_heads
    n_scores = n_blocks * n_heads * q.data.shape[-2] * n_keys
    FLOPS.add("matmul", 4 * n_scores * dk)
    FLOPS.add("other", 6 * n_scores)

    def split(x):   # (..., L, W) -> (..., H, L, dk), contiguous
        return np.ascontiguousarray(np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, dk)), -3, -2))

    def merge(x):   # (..., H, L, dk) -> (..., L, W)
        return np.swapaxes(x, -3, -2).reshape(x.shape[:-3] + (x.shape[-2], width))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    inv_scale = 1.0 / math.sqrt(dk)
    p = _softmax((qh @ np.swapaxes(kh, -1, -2)) * inv_scale, visible)
    if probe is not None:
        probe(p)
    out = merge(p @ vh)

    def bwd(g):
        gh = split(g)
        if v.requires_grad:
            v._acc(merge(np.swapaxes(p, -1, -2) @ gh))
        if not (q.requires_grad or k.requires_grad):
            return
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * inv_scale
        if q.requires_grad:
            dq = ds @ kh
            q._acc(merge(dq if q.data.ndim == 3 else dq.sum(axis=0)))
        if k.requires_grad:
            k._acc(merge(np.swapaxes(ds, -1, -2) @ qh))

    return _make(out, (q, k, v), bwd)


def layer_norm(a, gain, bias, eps=1e-5):
    """Per-row normalization with population variance, then affine gain+bias.

    FLOPs: ~10 per element.
    """
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    if a.data.ndim != 2:
        raise ShapeError(f"layer_norm: need a 2-d tensor, got shape {a.data.shape}")
    n = a.data.shape[1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: affine shapes {gain.data.shape}/{bias.data.shape} vs width {n}")
    FLOPS.add("other", 10 * a.data.size)
    mu = a.data.mean(axis=1, keepdims=True)
    var = ((a.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        if gain.requires_grad:
            gain._acc((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias._acc(g.sum(axis=0))
        if a.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            a._acc((dxhat - m1 - xhat * m2) * inv)

    return _make(out, (a, gain, bias), bwd)


def mean_rows(a):
    """Column means over the rows, accumulated with exact summation.

    `math.fsum` is exactly rounded, so the result does not depend on the
    order of the rows. FLOPs: ~1 per element.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[0] < 1:
        raise ShapeError(f"mean_rows: need a non-empty 2-d tensor, got shape {a.data.shape}")
    r, d = a.data.shape
    FLOPS.add("other", a.data.size)
    out = np.array([math.fsum(a.data[:, j]) for j in range(d)]) / r

    def bwd(g):
        a._acc(np.broadcast_to(g / r, a.data.shape).copy())

    return _make(out, (a,), bwd)


def max_rows(a):
    """Column maxima over the rows; gradient routes to the first argmax."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[0] < 1:
        raise ShapeError(f"max_rows: need a non-empty 2-d tensor, got shape {a.data.shape}")
    FLOPS.add("other", a.data.size)
    idx = np.argmax(a.data, axis=0)
    out = a.data[idx, np.arange(a.data.shape[1])]

    def bwd(g):
        d = np.zeros_like(a.data)
        d[idx, np.arange(a.data.shape[1])] = g
        a._acc(d)

    return _make(out, (a,), bwd)


def min_rows(a):
    """Column minima over the rows; gradient routes to the first argmin."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[0] < 1:
        raise ShapeError(f"min_rows: need a non-empty 2-d tensor, got shape {a.data.shape}")
    FLOPS.add("other", a.data.size)
    idx = np.argmin(a.data, axis=0)
    out = a.data[idx, np.arange(a.data.shape[1])]

    def bwd(g):
        d = np.zeros_like(a.data)
        d[idx, np.arange(a.data.shape[1])] = g
        a._acc(d)

    return _make(out, (a,), bwd)


def std_rows(a):
    """Column population standard deviation (divisor r), exact summation.

    Where a column is constant the forward value is 0 and the (sub)gradient
    contribution is taken as 0. FLOPs: ~4 per element.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[0] < 1:
        raise ShapeError(f"std_rows: need a non-empty 2-d tensor, got shape {a.data.shape}")
    r, d = a.data.shape
    FLOPS.add("other", 4 * a.data.size)
    mu = np.array([math.fsum(a.data[:, j]) for j in range(d)]) / r
    centered = a.data - mu
    var = np.array([math.fsum(centered[:, j] ** 2) for j in range(d)]) / r
    # a constant column has exactly zero deviation; without this the last-ulp
    # rounding of the mean would leak a ~1e-16 residual into the output
    constant = a.data.max(axis=0) == a.data.min(axis=0)
    out = np.where(constant, 0.0, np.sqrt(var))

    def bwd(g):
        safe = np.where(out > 0.0, out, 1.0)
        coeff = np.where(out > 0.0, g / (r * safe), 0.0)
        a._acc(centered * coeff)

    return _make(out, (a,), bwd)


def reduce_stats(a):
    """Column statistics over the rows: (mean, max, min, std).

    std is the population form (divisor = number of rows). A single row
    yields mean = max = min = the row and std = 0.
    """
    return mean_rows(a), max_rows(a), min_rows(a), std_rows(a)


def l2_normalize(v, eps=1e-12):
    """v / max(||v||_2, eps) for a 1-d tensor; the zero vector passes through."""
    v = _as_tensor(v)
    if v.data.ndim != 1:
        raise ShapeError(f"l2_normalize: need a 1-d tensor, got shape {v.data.shape}")
    FLOPS.add("other", 4 * v.data.size)
    norm = float(np.sqrt(np.dot(v.data, v.data)))
    denom = max(norm, eps)
    out = v.data / denom

    def bwd(g):
        if norm > eps:
            v._acc(g / norm - v.data * (np.dot(v.data, g) / norm**3))
        else:
            v._acc(g / eps)

    return _make(out, (v,), bwd)


def softplus(x):
    """ln(1 + e^x) elementwise, stable form max(x,0) + log1p(e^-|x|).

    Output is strictly positive for all finite inputs. FLOPs: ~6/element.
    """
    x = _as_tensor(x)
    FLOPS.add("other", 6 * x.data.size)
    out = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def bwd(g):
        pos = x.data >= 0
        ex = np.exp(-np.abs(x.data))
        sig = np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        x._acc(g * sig)

    return _make(out, (x,), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """tanh-form GELU, smooth everywhere. FLOPs: ~12 per element."""
    x = _as_tensor(x)
    FLOPS.add("other", 12 * x.data.size)
    u = _GELU_C * (x.data + 0.044715 * x.data**3)
    t = np.tanh(u)
    out = 0.5 * x.data * (1.0 + t)

    def bwd(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x.data**2)
        x._acc(g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du))

    return _make(out, (x,), bwd)


def reshape(a, shape):
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        a._acc(g.reshape(a.data.shape))

    return _make(out, (a,), bwd)


def concat_rows(tensors, axis=0):
    """Join tensors along `axis` (rows by default); all other axes must agree."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat_rows: empty input")
    shapes = [t.data.shape for t in tensors]
    if (len({len(s) for s in shapes}) != 1 or not 0 <= axis < len(shapes[0])
            or len({s[:axis] + s[axis + 1:] for s in shapes}) != 1):
        raise ShapeError(f"concat_rows: incompatible shapes {shapes} along axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [s[axis] for s in shapes])
    lead = (slice(None),) * axis

    def bwd(g):
        for t, i0, i1 in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._acc(g[lead + (slice(i0, i1),)])

    return _make(out, tuple(tensors), bwd)


def slice_rows(a, start, stop):
    """Rows start:stop along the leading axis (segments of a stack)."""
    a = _as_tensor(a)
    if a.data.ndim < 1 or not (0 <= start <= stop <= a.data.shape[0]):
        raise ShapeError(f"slice_rows: bad range [{start}:{stop}] for shape {a.data.shape}")
    out = a.data[start:stop]

    def bwd(g):
        d = np.zeros_like(a.data)
        d[start:stop] = g
        a._acc(d)

    return _make(out, (a,), bwd)


def embedding(table, ids):
    """Gather rows of `table` by integer ids; scatter-add on the way back."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or ids.ndim != 1:
        raise ShapeError(f"embedding: table {table.data.shape}, ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.data.shape[0]}) in lookup")
    out = table.data[ids]

    def bwd(g):
        d = np.zeros_like(table.data)
        np.add.at(d, ids, g)
        table._acc(d)

    return _make(out, (table,), bwd)


def nll_rows(logits, targets):
    """Per-row NLL of integer targets under logit rows; arrays, stable log-sum-exp."""
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return lse - logits[np.arange(logits.shape[0]), targets]


def cross_entropy_mean(logits, targets):
    """Mean negative log-likelihood of integer targets under row logits.

    Stable log-sum-exp; FLOPs: ~6 per logit.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise ShapeError(
            f"cross_entropy_mean: logits {logits.data.shape}, targets {targets.shape}")
    t, v = logits.data.shape
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"cross_entropy_mean: target id out of range [0, {v})")
    FLOPS.add("other", 6 * logits.data.size)
    out = np.array(nll_rows(logits.data, targets).mean())

    def bwd(g):
        p = _softmax(logits.data)
        p[np.arange(t), targets] -= 1.0
        logits._acc(p * (float(g) / t))

    return _make(out, (logits,), bwd)


def tsum(a):
    """Sum of all elements as a scalar node."""
    a = _as_tensor(a)
    FLOPS.add("other", a.data.size)
    out = np.array(a.data.sum())

    def bwd(g):
        a._acc(np.full_like(a.data, float(g)))

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# the numerical oracle

def finite_diff_grad(f, p, h=1e-5):
    """Central-difference gradient of a scalar function, one coordinate at a time.

    `f` maps a numpy array (same shape as `p`) to a float and must not
    retain references to its argument: the probe array is mutated in place
    between calls. This is the independent check that reverse-mode results
    are measured against.
    """
    p = np.array(p.data if isinstance(p, Tensor) else p, dtype=np.float64)
    g = np.zeros_like(p)
    flat = p.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(p))
        flat[i] = orig - h
        f_minus = float(f(p))
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return g
