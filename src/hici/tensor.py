"""Dense float64 tensors with reverse-mode differentiation.

Every value flowing through the attention module is a `Tensor`: a
C-contiguous float64 numpy array plus an optional autodiff node. Each
primitive op takes its operands as Tensors, as its callers hold them,
and converts none; only non-differentiable arguments (a constant factor,
integer ids or targets, a boolean mask) are plain arrays. Each op
returns a fresh Tensor; when gradients are enabled and an input requires
grad, the result gets a small node (`_Node`) holding the backward
closure, its inputs' nodes and the arrays that closure reads, and
nothing else. A closure hands each input's node its gradient and
captures no input Tensor, so a node keeps only what its backward reads:
the graph holds neither the logits nor the residual stream, which no
backward reads, once the forward has moved past them. A leaf (a
parameter) is its own node and keeps `.grad`. `backward(loss)` replays
the closures in reverse topological order. A graph can be differentiated
once; calling `backward` a second time without a new forward pass raises
instead of silently accumulating garbage. Inside `no_grad()` no op
builds a node, so a forward pass holds only its live activations.

`attention` is the one multi-head attention op: it runs every head of
B stacked blocks (segments) in a single graph node with a closed-form
backward, so a module pass builds the same small graph at any length.
Its one forward loop and its one backward loop run the blocks in chunks.
Its one mask, shared by
every block and head, is the (Lq, Lk) entries it hides, built valid by
the caller: `attention` checks only its shape, as a wrong one would
broadcast silently.

`prefix_stats` pools the statistics of every prefix of a stack of
blocks in one node from exact sums, carried from prefix to prefix, so
each mean equals `math.fsum` over its rows divided by their count, and
each variance is the correctly rounded (r*sum(x^2) - sum(x)^2) / r^2, in
any row order: segment-permutation invariance holds bit-for-bit. Two
exact routes, chosen by size, compute the same integer sums. A stack of
at most `EXACT_MAX_ENTRIES` entries is summed as Python ints: each
entry's 53-bit integer mantissa, shifted onto the stack's smallest
exponent, and its square. A larger stack is cut on a ladder of
error-free extraction levels until nothing is left; each level sums
exactly in float64, and each (prefix, column) cell joins its level sums
as Python ints. A large stack whose entries span more than about 2**959,
where the float parts of a square would lose bits, is summed as ints
too. Both routes round those sums through the same tail, so they give
the same bits for every input.

Gradients are handed over, not copied. A backward closure passes each
input's node its gradient through `_take`, which keeps a first array
exactly as it comes, signed zeros included, and adds any later one into
it in place. What a closure hands over is an array it allocated, its own
adjoint, or a region of that adjoint that no other input receives:
`reshape` hands over a view of its adjoint, `concat_rows` views of
disjoint parts of it, and `add` its adjoint to the first input that
needs a gradient and a copy to the second. That is safe because
`backward` releases the graph as it sweeps: once a node's closure has
run, the node drops its adjoint, its closure (with the arrays the
closure saved) and its input links, so nothing else reads an adjoint
once it is handed over. Only leaves keep their gradients, and a training
step holds neither the adjoints nothing reads again nor, during the next
forward, anything of the previous graph. The heap those releases free is
kept for the next step (`_keep_freed_heap`).

A node sums its terms where it receives them, in sweep order. So does a
leaf, unless the sweep has a lane (`parallel.open_lane`: only while the
kernel pool runs). There `matmul` hands its weight gradient a^T g to
the lane when the weight is a leaf and the adjoint g has at least
`SCORE_BUDGET` entries, before it computes the input gradient g b^T, so
the two products run on two CPUs at once; the lane first waits for its
previous job, so one product at most is in flight. From its first lane
term on, every later term of that leaf goes to the lane too, where one
job at a time adds them into `.grad` in the order the sweep handed them
over, as `_take` would have inline. The lane only reads what it was
handed, and `backward` waits for it before it returns or raises.

Kernels write only into buffers they allocated themselves, never into
an input but one (below), and stay off numpy's slow paths: `gelu` cubes by
multiplication, `x * x * x`, never `x**3` (numpy hands an exponent of 3
to libm `pow`), builds its tanh argument in one scratch buffer and its
output in one more (the same one without a graph); `layer_norm` centres
into the buffer that becomes `xhat` and adds the bias in place;
`_softmax` masks (-inf, whose `exp` is exactly 0), subtracts the row
max, takes `exp` and divides in place in the score buffer `attention`
has just made. `attention` hands matmul strided views of its heads,
never contiguous copies, and its backward builds the score adjoint in
one scratch array beside dP, which it drops once read. The log-sum-exp
of `nll_rows` and `cross_entropy_mean` takes `exp(logits - row max)` in
one scratch buffer; with a graph `cross_entropy_mean` keeps that buffer
whole, not the logits, and its backward turns it into the softmax in
place and hands it over. That buffer is the one input a kernel writes
into: when the logits are an interior result of the graph that nothing
but the call references, nor their array, `cross_entropy_mean` reads
the target logits first and takes the exp in the logits' own buffer
(`_owned`), so a training step holds one (T, vocab) array, not two.
CPython's reference counts show such a temporary argument; a probe at
import (`_sole_ref_counts`) finds the counts of one, and where they do
not differ from a named argument's no buffer is taken over. Nothing can
read the logits afterwards, so every bit is the same either way.

Working sets stay bounded, bit-identical to the whole-array kernels.
`attention` runs its blocks in chunks of at most `SCORE_BUDGET` score
entries. When a recorded graph or a probe reads the probabilities of
more than one chunk afterwards, each chunk writes its slice of one whole
(B, H, Lq, Lk) probability buffer, and the backward runs over the same
chunks. `nll_rows` works in row blocks of at most `SCORE_BUDGET` logits;
`gelu` builds its output in the tanh buffer when no backward reads it.
`gelu` (forward and backward) and the `layer_norm` backward run in
blocks of at most `SCORE_BUDGET` entries (whole rows for `layer_norm`)
written into one output array, and `embedding` scatters with one
`np.bincount` per column, the in-order sums of `np.add.at`. The
`h @ head` logits product stays whole: with OpenBLAS, row blocks of a
(2048, 32) @ (32, 257) product differ in their last bits from the whole
product, so the (T, vocab) logits are the one array a scoring window
needs whole.

The block loops of `attention` (forward and backward), `gelu` (forward
and backward), the `layer_norm` backward and the log-sum-exp of
`nll_rows` and `cross_entropy_mean` run through `parallel.each_block`,
which alone decides whether a call's blocks run on every CPU. Each
block makes the serial loop's numpy and single-thread BLAS calls on the
same slices and writes its own slice of one output, and a sum across
blocks (the shared-query gradient of `attention`) runs after them all,
so outputs, gradients, FLOP counts and graph sizes are the same bits on
any number of CPUs.

Fixed costs per call stay small, because at tiny shapes they are the
whole cost: the gradient oracle at T=8 makes about 80k ops per check. No
hot path enters a generator context manager (`no_grad` and `flop_scope`
are small classes). An op hands the fresh float64 array numpy made to
`_make`, which wraps it as it is and copies only a strided one, with no
re-validation, and no op coerces its operands into Tensors. Row means
and softmax reductions call the numpy ufuncs (`np.add.reduce`,
`np.maximum.reduce`) that `ndarray.mean`, `sum` and `max` call, without
their Python wrappers, so the bits are the same. `prefix_stats` finds
the first argmax and argmin rows only when a backward runs.

A process-wide FLOP counter (`FLOPS`) can be armed to measure the actual
arithmetic issued by a forward pass. Matmuls are charged 2*m*k*n
(multiply-add = 2 FLOPs); elementwise ops are charged with the
per-element costs listed next to each op. Counts are split into a
"matmul" and an "other" bucket per scope so analytic cost models can be
checked against the terms they actually cover.
"""

from __future__ import annotations

import ctypes
import math
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .parallel import each_block, open_lane


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GraphError(RuntimeError):
    """Autodiff graph misuse (double backward, non-scalar loss, ...)."""


# Working-set bounds of kernels (see the module docstring).
SCORE_BUDGET = 1 << 15     # entries per chunk or row block: 256 KiB of float64
EXACT_MAX_ENTRIES = 1024   # `prefix_stats` sums stacks this small as Python ints


# ---------------------------------------------------------------------------
# gradient mode

_GRAD_MODE = [True]


class no_grad:
    """Record no graph inside the block (pure inference); blocks nest.

    Ops return tensors with `requires_grad=False` and no node, so
    intermediate arrays are freed as soon as the forward pass stops using
    them.
    """

    __slots__ = ()

    def __enter__(self):
        _GRAD_MODE.append(False)

    def __exit__(self, *exc):
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

    def merge(self, buckets):
        """Add the counts of another counter's `buckets` to this one's."""
        for cat, counts in buckets.items():
            b = self.buckets.setdefault(cat, {"matmul": 0, "other": 0})
            for kind, n in counts.items():
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


class flop_scope:
    """Charge the FLOPs of the block to the scope `name`; scopes nest."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        FLOPS._scope.append(self.name)

    def __exit__(self, *exc):
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
    """A C-contiguous float64 array plus an optional autodiff node.

    Tensors are immutable by convention once constructed: ops never write
    into an input that anything else references (only `cross_entropy_mean`
    writes into its logits, and only when nothing else does), so sharing a
    Tensor across readers is safe. A
    recorded op's result points to its `_Node`, which holds the backward
    closure, the parents' nodes and the arrays that closure reads, but not
    the result's `.data`. A leaf (a parameter) is its own node: it has
    no parents and no closure, and keeps `.grad`. A result made without a
    graph has no node. The recorded graph is confined to the single
    forward/backward pass that created it: `backward` releases it, and
    with it every interior node's adjoint, as it sweeps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def _parents(self):
        """The parent nodes of this tensor's node; () for a leaf or a graph-free result."""
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        """The backward closure of this tensor's node, or None."""
        return None if self._node is None else self._node._backward

    def item(self):
        return float(self.data.reshape(()))

    def _take(self, g):
        """A leaf's `_Node._take`; once the leaf has a term on the sweep's lane,
        it adds every later term there too, behind the earlier ones."""
        if self in _LANE_LEAVES:
            _LANE[0].submit(_Node._take, self, g)
        else:
            _Node._take(self, g)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """The autodiff record of one op's result.

    `_inputs` holds, for each input of the op, its node (a `_Node`, or the
    leaf Tensor itself) or None where the input needs no gradient; the
    closure `_backward(g, *_inputs)` hands each node its gradient through
    `_take`. The closure holds only the arrays it reads, so the graph does
    not keep a result's or an input's `.data` unless a backward reads it.
    `grad` is the adjoint gathered so far. Once the closure has run,
    `backward` drops the adjoint, the closure and the inputs; a node whose
    closure is gone is spent.
    """

    __slots__ = ("grad", "_inputs", "_backward")

    def __init__(self, inputs, backward_fn):
        self.grad = None
        self._inputs = inputs
        self._backward = backward_fn

    @property
    def _parents(self):
        """The nodes the gradient flows to, inputs that need none left out."""
        return tuple([n for n in self._inputs if n is not None])

    def _take(self, g):
        """Add a gradient array the caller hands over; a first one is kept as it is.

        The caller may hand over an array it allocated, its own adjoint, or
        a region of that adjoint that no other input receives: nothing else
        reads or writes `g` afterwards, so this node may add into it.
        """
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


def parameter(data):
    """A leaf Tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


_new_object = object.__new__


def _wrap(data):
    """A Tensor around a float64 array an op has just made, copied only if not C-contiguous."""
    out = _new_object(Tensor)
    out.data = data if data.flags.c_contiguous else np.ascontiguousarray(data)
    out.grad = None
    out.requires_grad = False
    out._node = None
    return out


def _make(data, inputs, backward_fn):
    """`_wrap(data)`, with a `_Node` over `backward_fn` when gradients are recorded and
    some input requires grad; `backward_fn(g, *nodes)` gets each input's node or None."""
    out = _wrap(data)
    if _GRAD_MODE[-1]:   # a leaf is its own node
        nodes = tuple([(p._node or p) if p.requires_grad else None for p in inputs])
        if nodes.count(None) < len(nodes):
            out.requires_grad = True
            out._node = _Node(nodes, backward_fn)
    return out


def _records(inputs):
    """Whether `_make` builds a node over `inputs`, so that a backward may run."""
    return _GRAD_MODE[-1] and any(p.requires_grad for p in inputs)


def _ref_counts(t):
    """`sys.getrefcount` of the Tensor t and of its array, read by an op for its argument t."""
    return sys.getrefcount(t), sys.getrefcount(t.data)


def _sole_ref_counts():
    """The `_ref_counts` an op reads for a temporary argument that nothing else
    references, nor its array; None where this Python's counts do not tell
    such an argument from a named one, or its array from one a view holds too."""
    if not hasattr(sys, "getrefcount"):
        return None

    def op(t):   # reads the counts of its argument as an op does
        return _ref_counts(t)

    temporary = op(_wrap(np.empty(1)))
    named, viewed = _wrap(np.empty(1)), _wrap(np.empty(1))
    view = viewed.data[:]   # holds viewed's array through its base
    tells = op(named)[0] > temporary[0] and op(viewed)[1] > temporary[1]
    del view
    return temporary if tells else None


_SOLE_REF_COUNTS = _sole_ref_counts()


def _owned(t, counts):
    """Whether an op may write into the array of its argument t, given the
    `_ref_counts(t)` it read before binding t or its array to any other name.

    It may when t is an interior result of a recorded graph, not a leaf,
    and the counts are those of a temporary argument that nothing else
    references, nor its array, which owns its memory: a view's own count
    says nothing of its base. A name, a container, a wrapper's argument
    tuple, a view of the array or a backward closure that reads it all
    raise a count. A weak reference does not; this package holds none to
    an array.
    """
    return (counts == _SOLE_REF_COUNTS and _GRAD_MODE[-1] and type(t._node) is _Node
            and t.data.base is None)


def _row_blocks(n_rows, row_size):
    """Slices of whole rows, at most `SCORE_BUDGET` entries (one row at least) each."""
    if n_rows * row_size <= SCORE_BUDGET:
        return [slice(None)]
    step = max(1, SCORE_BUDGET // row_size)
    return [slice(r0, r0 + step) for r0 in range(0, n_rows, step)]


def grad_or_zero(t):
    """Accumulated gradient, or zeros if the tensor never joined a graph."""
    return t.grad if t.grad is not None else np.zeros_like(t.data)


# The running sweep's lane (`parallel.open_lane`), or None, and the leaves with
# a term on it.
_LANE = [None]
_LANE_LEAVES = set()


def _weight_grad(a, g):
    """a^T g, a's leading axes folded into rows: `matmul`'s gradient of its weight."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _take_weight_grad(leaf, a, g):
    """The lane job of a deferred weight gradient: `leaf` adds a^T g as a node would."""
    _Node._take(leaf, _weight_grad(a, g))


def _defer_weight_grad(leaf, other, a, g):
    """Hand `matmul`'s weight gradient a^T g to the sweep's lane and return
    True, when the weight `leaf` is a leaf, not also `matmul`'s other input
    `other`, and the adjoint g has at least `SCORE_BUDGET` entries."""
    if type(leaf) is not Tensor or leaf is other or g.size < SCORE_BUDGET:
        return False
    _LANE_LEAVES.add(leaf)
    _LANE[0].submit(_take_weight_grad, leaf, a, g)
    return True


@lru_cache(maxsize=None)
def _keep_freed_heap():
    """Keep the heap a backward frees for the next step instead of handing it back.

    glibc malloc serves arrays under its mmap threshold from the heap and
    returns a free heap top past its trim threshold to the system; both
    thresholds follow the largest array freed so far. A backward that
    releases the graph as it goes frees more than that at the top, so
    each step would return it and fault it back in on the next forward.
    Fixed thresholds of 32 MiB (glibc's largest on 64-bit) and 256 MiB keep
    it. The first `backward` of a process sets them, once; a C library
    without `mallopt` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


def backward(loss):
    """Reverse-mode sweep from a scalar loss node.

    Fills `.grad` on every grad-requiring leaf reachable from `loss`;
    parameters that did not participate keep grad None (read them through
    `grad_or_zero`). The sweep runs the closures of the interior nodes
    (`_Node`s) in reverse topological order; a leaf only receives. The
    recorded graph is single-use, and the sweep releases it as it goes:
    once a node's closure has run, the node drops its adjoint, its closure
    (with the arrays it saved) and its input links, and the sweep drops
    the node. An interior tensor keeps its `.data` and its spent node only.

    Each node and leaf adds its gradient terms in the order the sweep hands
    them over; a leaf with weight-gradient terms on the sweep's lane (see
    the module docstring) adds all its terms from the first of those on
    there, in that same order, and this returns or raises only once the
    lane has run every one.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if root is None:   # a leaf or a graph-free result: no closure to run
        loss.grad = np.ones_like(loss.data)
        return
    if root._backward is None:
        raise GraphError("backward already ran for this graph; run a new forward pass")
    _keep_freed_heap()

    topo = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            topo.append(node)
            stack.pop()
        elif type(nxt) is _Node and id(nxt) not in visited:
            visited.add(id(nxt))
            if nxt._backward is None:
                raise GraphError("backward already ran for this graph; run a new forward pass")
            stack.append((nxt, iter(nxt._parents)))

    root.grad = np.ones_like(loss.data)
    _LANE[0] = open_lane()
    try:
        while topo:
            node = topo.pop()   # reverse topological order; the sweep holds no node it has passed
            node._backward(node.grad, *node._inputs)
            node._backward = None
            node._inputs = ()
            node.grad = None
    finally:   # every term on the lane is added before backward returns or raises
        lane, _LANE[0] = _LANE[0], None
        _LANE_LEAVES.clear()
        if lane is not None:
            lane.join()


# ---------------------------------------------------------------------------
# primitive ops

def matmul(a, b):
    """Matrix product a[..., m, k] @ b[k, n]; leading axes of `a` stack blocks.

    FLOPs: 2*m*k*n per block.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} x {bd.shape}")
    FLOPS.add("matmul", 2 * ad.size * bd.shape[1])

    def bwd(g, na, nb):
        if nb is not None and _LANE[0] is not None and _defer_weight_grad(nb, na, ad, g):
            nb = None   # a^T g runs on the lane while g b^T runs here
        if na is not None:
            na._take(g @ bd.T)
        if nb is not None:
            nb._take(_weight_grad(ad, g))

    return _make(ad @ bd, (a, b), bwd)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    FLOPS.add("other", a.data.size)
    out = a.data + b.data

    def bwd(g, na, nb):
        if na is not None:
            na._take(g)
        if nb is not None:
            nb._take(g if na is None else g.copy())

    return _make(out, (a, b), bwd)


def mul_const(a, c):
    """Elementwise product with a non-differentiable constant (array or scalar)."""
    FLOPS.add("other", a.data.size)
    out = a.data * c

    def bwd(g, na):
        na._take(g * c)

    return _make(out, (a,), bwd)


def scale(a, s):
    """Product with a single-element gate tensor; differentiable in both."""
    ad, sd = a.data, s.data
    if sd.size != 1:
        raise ShapeError(f"scale: gate must hold one value, got shape {sd.shape}")
    FLOPS.add("other", ad.size)
    sval = sd.reshape(())
    out = ad * sval

    def bwd(g, na, ns):
        if na is not None:
            na._take(g * sval)
        if ns is not None:
            ns._take(np.sum(g * ad).reshape(sd.shape))

    return _make(out, (a, s), bwd)


def _softmax(a, hidden=None):
    """Softmax over the last axis with max subtraction, in place; hidden entries get 0.

    Overwrites and returns `a`, so a caller that does not own `a` passes a
    copy. `hidden` is an optional boolean mask of the entries to hide,
    broadcast against `a`; a row it hides whole comes out NaN.
    """
    if hidden is not None:
        np.copyto(a, -np.inf, where=hidden)   # exp(-inf - max) is exactly 0
    a -= np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=-1, keepdims=True)
    return a


def _split_heads(x, n_heads, dk):
    """(..., L, W) -> (..., H, L, dk), a strided view that matmul reads as is."""
    return x.reshape(x.shape[:-1] + (n_heads, dk)).swapaxes(-3, -2)


def _merge_heads(x, width):
    """(..., H, L, dk) -> (..., L, W)."""
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (x.shape[-2], width))


def attention(q, k, v, n_heads, hidden=None, probe=None):
    """Multi-head scaled dot-product attention over B stacked blocks.

    `k` and `v` are (B, Lk, W) Tensors; `q` is (B, Lq, W), or (Lq, W) when
    every block shares it. Heads split W contiguously into slices of width
    dk, scores are scaled by 1/sqrt(dk), and the result is (B, Lq, W) with
    no output projection. `hidden`, an optional (Lq, Lk) boolean mask of
    the entries to hide in every block and head, leaves each row one
    visible entry. `probe`, a
    diagnostic hook, is called with the probabilities, shape (B, n_heads,
    Lq, Lk).

    One loop runs the blocks in chunks of at most `SCORE_BUDGET` scores,
    on the worker pool when there are enough of them (`each_block`), and
    writes each chunk's heads into one output array. When a backward or a
    probe reads the probabilities of more than one chunk afterwards, each
    chunk also writes its slice of one probability buffer, and the
    backward loop runs over the same chunks. Every product and softmax row
    is the one the whole stack computes, so the result does not depend on
    the chunks.

    Backward is closed form: with dP = dO V^T the score adjoint is
    P * (dP - rowsum(dP * P)) (Dao et al. 2022). FLOPs per block and head
    are those of the unfused chain: 4*Lq*Lk*dk matmul (scores and P V)
    and 6*Lq*Lk other (scaling and softmax).
    """
    qd, kd, vd = q.data, k.data, v.data
    if (kd.ndim != 3 or vd.shape != kd.shape or qd.shape[-1] != kd.shape[2]
            or qd.ndim not in (2, 3) or qd.shape[:-2] not in ((), kd.shape[:1])):
        raise ShapeError(
            f"attention: incompatible q/k/v shapes {qd.shape} {kd.shape} {vd.shape}")
    n_blocks, n_keys, width = kd.shape
    if width % n_heads != 0:
        raise ShapeError(f"attention width {width} not divisible by {n_heads} heads")
    dk = width // n_heads
    n_queries = qd.shape[-2]
    per_block = n_heads * n_queries * n_keys
    FLOPS.add("matmul", 4 * n_blocks * per_block * dk)
    FLOPS.add("other", 6 * n_blocks * per_block)
    if hidden is not None and hidden.shape != (n_queries, n_keys):
        raise ShapeError(f"attention: mask shape {hidden.shape} vs scores {n_queries, n_keys}")
    inv_scale = 1.0 / math.sqrt(dk)
    shared_q = qd.ndim == 2
    qh, kh, vh = (_split_heads(qd, n_heads, dk), _split_heads(kd, n_heads, dk),
                  _split_heads(vd, n_heads, dk))
    chunks = _row_blocks(n_blocks, per_block)
    probs = None   # one buffer the chunks write p into
    if len(chunks) > 1 and (probe is not None or _records((q, k, v))):   # p is read afterwards
        probs = np.empty((n_blocks, n_heads, n_queries, n_keys))
    out = np.empty((n_blocks, n_queries, width))
    out_heads = out.reshape(out.shape[:2] + (n_heads, dk))

    def forward_chunk(blk):
        qb, kb = qh if shared_q else qh[blk], kh[blk].swapaxes(-1, -2)
        p = qb @ kb if probs is None else np.matmul(qb, kb, out=probs[blk])
        p *= inv_scale
        _softmax(p, hidden)
        out_heads[blk] = (p @ vh[blk]).swapaxes(-3, -2)
        return p

    if len(chunks) == 1:
        p = forward_chunk(chunks[0])   # every block
    else:
        each_block(forward_chunk, chunks)
        p = probs
    if probe is not None:
        probe(p)

    def bwd(g, nq, nk, nv):
        # over the forward's chunks, each writing its slice of one (B, H, L, dk)
        # buffer per input; the shared-query sum over blocks runs after them all
        gh = _split_heads(g, n_heads, dk)
        grad_v, grad_k = (None if n is None else np.empty(kh.shape) for n in (nv, nk))
        grad_q = None if nq is None else np.empty((n_blocks,) + qh.shape[-3:])

        def backward_chunk(blk):
            gb, pb = gh[blk], p[blk]
            if nv is not None:
                np.matmul(pb.swapaxes(-1, -2), gb, out=grad_v[blk])
            if nq is None and nk is None:
                return
            # ds = p * (dp - rowsum(dp * p)) * inv_scale, built in one scratch array
            dp = gb @ vh[blk].swapaxes(-1, -2)
            ds = dp * pb
            rowsum = ds.sum(axis=-1, keepdims=True)
            np.subtract(dp, rowsum, out=ds)
            del dp
            ds *= pb
            ds *= inv_scale
            if nq is not None:
                np.matmul(ds, kh[blk], out=grad_q[blk])
            if nk is not None:
                np.matmul(ds.swapaxes(-1, -2), qh if shared_q else qh[blk], out=grad_k[blk])

        each_block(backward_chunk, chunks)
        if nv is not None:
            nv._take(_merge_heads(grad_v, width))
        if nq is not None:
            nq._take(_merge_heads(grad_q.sum(axis=0) if shared_q else grad_q, width))
        if nk is not None:
            nk._take(_merge_heads(grad_k, width))

    return _make(out, (q, k, v), bwd)


def _row_means(a):
    """a.mean(axis=1, keepdims=True) of a 2-d array: numpy's own two ufunc calls."""
    means = np.add.reduce(a, axis=1, keepdims=True)
    means /= a.shape[1]
    return means


def layer_norm(a, gain, bias, eps=1e-5):
    """Per-row normalization with population variance, then affine gain+bias.

    FLOPs: ~10 per element.
    """
    ad = a.data
    if ad.ndim != 2:
        raise ShapeError(f"layer_norm: need a 2-d tensor, got shape {ad.shape}")
    n = ad.shape[1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: affine shapes {gain.data.shape}/{bias.data.shape} vs width {n}")
    FLOPS.add("other", 10 * ad.size)
    xhat = ad - _row_means(ad)
    inv = 1.0 / np.sqrt(_row_means(np.square(xhat)) + eps)
    xhat *= inv
    gd = gain.data
    out = xhat * gd
    out += bias.data

    def bwd(g, na, ngain, nbias):
        if ngain is not None:
            ngain._take((g * xhat).sum(axis=0))
        if nbias is not None:
            nbias._take(g.sum(axis=0))
        if na is None:
            return
        # (dxhat - m1 - xhat * m2) * inv, dxhat = g * gain, in row blocks written into dx
        dx = np.empty_like(xhat)

        def backward_block(rows):
            xh, out = xhat[rows], dx[rows]
            dxhat = g[rows] * gd
            m1 = _row_means(dxhat)
            np.multiply(dxhat, xh, out=out)
            m2 = _row_means(out)
            dxhat -= m1
            np.multiply(xh, m2, out=out)
            np.subtract(dxhat, out, out=out)
            out *= inv[rows]

        each_block(backward_block, _row_blocks(*xhat.shape))
        na._take(dx)

    return _make(out, (a, gain, bias), bwd)


@lru_cache(maxsize=16)
def _ones(n):
    """A read-only vector of n ones, shared between calls."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _rounded(num, e, den=1):
    """num * 2**e / den for Python ints, 0 < den < 2**1022, correctly rounded to
    float64; +-inf past its range.

    Python rounds num / den correctly, to a normal float or 0, and scaling
    that by 2**e keeps the rounding unless the result is subnormal, which
    numpy reports; only then, or where num / den is past the float range,
    is num * 2**e or den * 2**-e formed, an int |e| bits longer.
    """
    try:
        q = (num / den).astype(np.float64)
        with np.errstate(over="ignore", under="raise"):   # +-inf is the rounded value
            return np.ldexp(q, e)
    except (OverflowError, FloatingPointError):
        num, den = (num * (1 << e), den) if e >= 0 else (num, den * (1 << -e))
        return np.vectorize(_quotient, otypes=[np.float64])(num, den)


def _quotient(num, den):
    """num / den for Python ints, den > 0, or +-inf where it rounds past the largest float."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _moments(s, es, q, eq, rows, k):
    """fl(sum(x)) / r and the correctly rounded variance of xs, x = xs * 2**k, from
    the exact prefix sums s * 2**es of xs and q * 2**eq of xs**2 (Python ints)."""
    e = min(es, eq // 2)   # whole units 2**e of sum(xs) and 2**(2e) of sum(xs**2)
    if es > e:
        s = s << (es - e)
    r = rows.astype(object)
    # the variance (r sum(xs**2) - sum(xs)**2) / r**2
    var = _rounded((r << (eq - 2 * e)) * q - s * s, 2 * e, r * r)
    return _rounded(s, e + k) / rows, var


def _exact_moments(xs, rows, k):
    """`_moments` of xs, summed entry by entry as Python ints.

    Each entry of xs is its 53-bit integer mantissa shifted onto the
    stack's smallest exponent e, so the prefix sums of those ints and of
    their squares are the sums of xs and xs**2 in units 2**e and 2**(2e),
    exactly.
    """
    mant, ex = np.frexp(xs)
    e = int(np.minimum.reduce(ex, axis=None, initial=1024, where=mant != 0)) - 53
    ints = np.ldexp(mant, 53).astype(np.int64).astype(object) << np.maximum(ex - 53 - e, 0)
    s = np.add.reduce(ints, axis=1)
    q = np.add.reduce(ints * ints, axis=1)
    if len(s) > 1:
        s, q = np.add.accumulate(s, axis=0), np.add.accumulate(q, axis=0)
    return _moments(s, e, q, 2 * e, rows, k)


def _level_sums(v, h, parts):
    """Exact prefix sums over blocks of v (g, B, R, d), |v| <= 2**960, each over
    `parts` consecutive groups: Python ints J (g / parts, B, d) and m, sums
    J * 2**(m-53). Cuts v in place on levels from 2**(960+h) down until
    nothing is left (see `_ladder_moments`)."""
    m, cut, ints = 960 + h, np.empty_like(v), None
    while True:
        np.add(v, 2.0**m, out=cut)
        cut -= 2.0**m
        v -= cut
        lev = np.ldexp(_ones(v.shape[2]) @ cut, 53 - m).astype(np.int64)
        lev = lev.reshape((-1, parts) + lev.shape[1:]).sum(axis=1).cumsum(axis=1).astype(object)
        ints = lev if ints is None else (ints << (53 - h)) + lev
        if not v.any():
            return ints, m
        m -= 53 - h


def _ladder_moments(xs, rows, k):
    """`_moments` of xs, summed level by level in float64 and joined as Python ints.

    Error-free extraction (Rump, Ogita and Oishi 2008): with |v| <= sigma *
    2**-h, adding and subtracting sigma, a power of two, cuts each entry
    into a multiple of sigma * 2**-53 (the unit) of at most 2**(53-h) + 1
    units and a remainder of at most one unit, cut next at sigma * 2**(h-53).
    With R < 2**(h-1) the cut parts of a block sum exactly in float64; with
    B * R < 2**(h+7) three such block sums added, and their prefix sums
    over blocks, stay exact in int64. Each cell joins its level sums as
    Python ints: the sums of `_exact_moments` up to a power of two, so both
    routes give the same bits. A stack with a nonzero entry below 2**-480,
    whose float square would lose bits, is summed by `_exact_moments`.
    """
    if np.minimum.reduce(np.abs(xs), axis=None, initial=1.0, where=xs != 0) < 2.0**-480:
        return _exact_moments(xs, rows, k)
    n_blocks, n_rows, _ = xs.shape
    split = xs * 134217729.0   # Veltkamp: 26-bit halves xs = hi + lo, whose products are exact
    hi = split - (split - xs)
    lo = xs - hi
    v = np.empty((3,) + xs.shape)
    np.multiply(hi, hi, out=v[0])
    np.multiply(2.0 * hi, lo, out=v[1])
    np.multiply(lo, lo, out=v[2])
    h = max(n_rows.bit_length() + 1, (n_blocks * n_rows).bit_length() - 7)
    s, ms = _level_sums(xs[None] * 2.0**480, h, 1)
    q, mq = _level_sums(v, h, 3)
    return _moments(s[0], ms - 533, q[0], mq - 53, rows, k)


def _prefix_extremes(x):
    """Column max and min of each block, and over the rows of blocks[:i+1], every i.

    Returns (best, ext), each (B, 2, d): max in [:, 0], min in [:, 1].
    """
    best = np.empty((x.shape[0], 2, x.shape[2]))
    np.maximum.reduce(x, axis=1, out=best[:, 0])
    np.minimum.reduce(x, axis=1, out=best[:, 1])
    if x.shape[0] == 1:
        return best, best
    ext = np.empty_like(best)
    np.maximum.accumulate(best[:, 0], axis=0, out=ext[:, 0])
    np.minimum.accumulate(best[:, 1], axis=0, out=ext[:, 1])
    return best, ext


def _first_extremes(x, best, ext):
    """The flat index in x of the first row holding each prefix extreme of `_prefix_extremes`:
    the first row of the first block that holds the prefix max (min), (B, 2, d)."""
    n_blocks, n_rows, d = x.shape
    first = np.empty(ext.shape, dtype=np.intp)   # rows within a block
    cols = x.swapaxes(1, 2)   # numpy's arg-reductions run faster along the last axis
    cols.argmax(axis=2, out=first[:, 0])
    cols.argmin(axis=2, out=first[:, 1])
    blk = np.zeros(first.shape, dtype=np.intp)   # the block that set a new extreme last
    np.greater(best[1:, 0], ext[:-1, 0], out=blk[1:, 0], casting="unsafe")
    np.less(best[1:, 1], ext[:-1, 1], out=blk[1:, 1], casting="unsafe")
    blk *= np.arange(n_blocks)[:, None, None]
    np.maximum.accumulate(blk, axis=0, out=blk)
    first = first.reshape(-1)[blk * (2 * d) + np.arange(2 * d).reshape(2, d)] + blk * n_rows
    first *= d
    first += np.arange(d)
    return first


def prefix_stats(blocks):
    """Column mean, max, min and population std of the rows of blocks[:i+1], every i.

    `blocks` is (B, R, d); the result is (B, 4, d). From exact sums of x and
    x^2 (entries within 2**900 of the largest), a mean is the correctly rounded
    sum of r rows divided by r, math.fsum(rows) / r, and a variance the correctly
    rounded (r*sum(x^2) - sum(x)^2) / r^2, 0 on a constant column. Up to
    `EXACT_MAX_ENTRIES` entries the sums are Python ints, entry by entry
    (`_exact_moments`); a larger stack is summed exactly in float64 on a
    ladder of extraction levels (`_ladder_moments`). Both give the same
    bits. Max and min route their gradient to the first argmax / argmin,
    which only the backward looks for. FLOPs: 7 per element.
    """
    x = blocks.data
    if x.ndim != 3 or 0 in x.shape[:2]:
        raise ShapeError(f"prefix_stats: need non-empty (blocks, rows, d), got shape {x.shape}")
    FLOPS.add("other", 7 * x.size)
    finite = np.isfinite(x)
    all_finite = finite.all()
    xf = x if all_finite else np.where(finite, x, 0.0)
    largest = np.maximum.reduce(np.abs(xf), axis=None)
    k = math.frexp(largest)[1] - 480    # x * 2**-k: squares below 2**960
    xs = np.ldexp(xf, -k)
    rows = np.arange(1, x.shape[0] + 1)[:, None] * x.shape[1]
    best, ext = _prefix_extremes(x)
    moments = _ladder_moments if x.size > EXACT_MAX_ENTRIES else _exact_moments
    mean, var = moments(xs, rows, k)
    std_s = np.sqrt(var)   # the std of xs
    if not all_finite:   # a non-finite row poisons its prefixes, as in plain summation
        poisoned = np.logical_or.accumulate(~finite.all(axis=1), axis=0)
        mean = np.where(poisoned, np.cumsum(x.sum(axis=1), axis=0) / rows, mean)
        std_s = np.where(poisoned, np.nan, std_s)
    std = np.ldexp(std_s, k)

    def bwd(g, nblocks):
        # the std adjoint (x - mean) / (r std), in the units of xs (largest entry
        # near 2**480) so that a subnormal std cannot overflow it; power-of-two
        # scaling is exact, so normal-range gradients are unchanged
        mean_s = np.ldexp(mean, -k)
        coeff = np.divide(g[:, 3], rows * std_s, out=np.zeros_like(std_s), where=std_s > 0)
        # block j gets the adjoints of every prefix i >= j that holds it; with
        # a_j = sum_{i>=j} coeff_i, sum_{i>=j} coeff_i (x - mean_i) is
        # (x - mean_j) a_j - sum_{k>=j} (mean_{k+1} - mean_k) a_{k+1}, a zero term for k = B-1
        a, b = np.cumsum(np.stack([coeff, g[:, 0] / rows])[:, ::-1], axis=1)[:, ::-1]
        shifted = np.concatenate([mean_s[1:], mean_s[-1:]])
        step = (shifted - mean_s) * np.concatenate([a[1:], a[-1:]])
        c = np.cumsum(step[::-1], axis=0)[::-1]
        dx = (np.ldexp(x, -k) - mean_s[:, None]) * a[:, None] + (b - c)[:, None]
        first = _first_extremes(x, best, ext)
        d_max = np.bincount(first[:, 0].ravel(), g[:, 1].ravel(), x.size).reshape(x.shape)
        d_neg_min = np.bincount(first[:, 1].ravel(), -g[:, 2].ravel(), x.size).reshape(x.shape)
        nblocks._take(dx + d_max - d_neg_min)   # min = -max(-x)

    return _make(np.concatenate([mean[:, None], ext, std[:, None]], 1), (blocks,), bwd)


def l2_normalize(v, eps=1e-12):
    """v / max(||v||_2, eps) along the last axis; a zero vector passes through.

    A row whose largest entry reaches 2**256 is first scaled by 2**k, k < 0,
    so that its largest entry lies in [2**255, 2**256): its squared norm and
    the cube of the norm the backward takes stay finite. Power-of-two
    scaling is exact, so each result is the unscaled one wherever that one's
    intermediates are normal; smaller rows are not scaled. A stack whose
    every entry lies below 2**256 has k = 0 in every row, so it skips the
    scaling altogether.
    """
    FLOPS.add("other", 4 * v.data.size)
    vs, k = v.data, None
    if not np.maximum.reduce(np.abs(vs), axis=None, initial=0.0) < 2.0**256:   # NaN and inf too
        # the largest exponent of a row is that of its largest entry
        k = np.minimum(256 - np.maximum.reduce(np.frexp(vs)[1], axis=-1, keepdims=True), 0)
        vs = np.ldexp(vs, k)
    norm = np.sqrt(vs[..., None, :] @ vs[..., :, None])[..., 0]   # np.dot per row, of vs
    denom = np.maximum(norm, eps)
    out = vs / denom

    def bwd(g, nv):
        dot = (vs[..., None, :] @ g[..., :, None])[..., 0]
        dv = np.where(norm > eps, g / denom - vs * (dot / denom**3), g / eps)
        nv._take(dv if k is None else np.ldexp(dv, k))

    return _make(out, (v,), bwd)


def softplus(x):
    """ln(1 + e^x) elementwise, stable form max(x,0) + log1p(e^-|x|).

    Output is strictly positive for all finite inputs. FLOPs: ~6/element.
    """
    xd = x.data
    FLOPS.add("other", 6 * xd.size)
    out = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))

    def bwd(g, nx):
        pos = xd >= 0
        ex = np.exp(-np.abs(xd))
        sig = np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        nx._take(g * sig)

    return _make(out, (x,), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """tanh-form GELU, smooth everywhere. FLOPs: ~12 per element."""
    xd = x.data
    FLOPS.add("other", 12 * xd.size)
    t = np.empty(xd.shape)
    # the output is built in t's own buffer when no backward will read t
    out = np.empty(xd.shape) if _records((x,)) else t
    xf, tf, of = xd.reshape(-1), t.reshape(-1), out.reshape(-1)
    blocks = _row_blocks(xd.size, 1)

    def forward_block(blk):
        xb, tb, ob = xf[blk], tf[blk], of[blk]
        np.multiply(xb, xb, out=tb)   # x * x * x: numpy sends x**3 to libm pow
        tb *= xb
        tb *= 0.044715
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        # 0.5 * x * (1 + t): (1 + t) * 0.5 is exact, and * x last cannot overflow early
        np.add(tb, 1.0, out=ob)
        ob *= 0.5
        ob *= xb

    each_block(forward_block, blocks)

    def bwd(g, nx):
        # g * ((t + 1) * 0.5 + ((0.5 * x) * (1 - t * t)) * du), du = C * (1 + 3 * 0.044715 * x * x),
        # in blocks of the flat arrays, each through two scratch buffers into dx
        dx = np.empty(xd.shape)
        gf, df = np.ravel(g), dx.reshape(-1)

        def backward_block(blk):
            xb, tb, out = xf[blk], tf[blk], df[blk]
            du = xb * xb
            du *= 3 * 0.044715
            du += 1.0
            du *= _GELU_C
            np.multiply(tb, tb, out=out)
            np.subtract(1.0, out, out=out)
            half = xb * 0.5
            out *= half
            out *= du
            np.add(tb, 1.0, out=half)
            half *= 0.5
            out += half
            out *= gf[blk]

        each_block(backward_block, blocks)
        nx._take(dx)

    return _make(out, (x,), bwd)


def reshape(a, shape):
    shape_in = a.data.shape
    out = a.data.reshape(shape)

    def bwd(g, na):
        na._take(g.reshape(shape_in))

    return _make(out, (a,), bwd)


def concat_rows(tensors, axis=0):
    """Join tensors along `axis` (rows by default); all other axes must agree."""
    if not tensors:
        raise ShapeError("concat_rows: empty input")
    arrays = [t.data for t in tensors]
    try:   # numpy checks the ranks and the other axes, and reads no negative axis here
        if not 0 <= axis < arrays[0].ndim:
            raise ValueError
        out = np.concatenate(arrays, axis=axis)
    except ValueError:
        shapes = [a.shape for a in arrays]
        raise ShapeError(
            f"concat_rows: incompatible shapes {shapes} along axis {axis}") from None

    sizes = [a.shape[axis] for a in arrays]

    def bwd(g, *nodes):
        lead = (slice(None),) * axis
        i1 = 0
        for node, size in zip(nodes, sizes):
            i0, i1 = i1, i1 + size
            if node is not None:
                node._take(g[lead + (slice(i0, i1),)])

    return _make(out, tensors, bwd)


def slice_rows(a, start, stop, axis=0):
    """Entries start:stop along `axis`, by default the leading one (segments of a stack)."""
    if not (0 <= axis < a.data.ndim and 0 <= start <= stop <= a.data.shape[axis]):
        raise ShapeError(f"slice_rows: bad range [{start}:{stop}] on axis {axis} of {a.shape}")
    index = (slice(None),) * axis + (slice(start, stop),)
    shape_in = a.data.shape
    out = a.data[index]

    def bwd(g, na):
        d = np.zeros(shape_in)
        d[index] = g
        na._take(d)

    return _make(out, (a,), bwd)


def embedding(table, ids):
    """Gather rows of `table` by integer ids; scatter-add on the way back."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or ids.ndim != 1:
        raise ShapeError(f"embedding: table {table.data.shape}, ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.data.shape[0]}) in lookup")
    shape_in = table.data.shape
    out = table.data[ids]

    def bwd(g, ntable):
        # np.add.at(zeros, ids, g) a column at a time: bincount adds in the same order
        d = np.empty(shape_in)
        for j in range(d.shape[1]):
            d[:, j] = np.bincount(ids, g[:, j], d.shape[0])
        ntable._take(d)

    return _make(out, (table,), bwd)


def _log_sum_exp(logits, exp_out):
    """Row log-sum-exp of logits and the row sums of exp(logits - row max).

    It runs over `_row_blocks`, taking `exp` in a block-sized buffer, or
    in the rows of `exp_out` unless that is None; each reduction is per
    row, so the result is the whole array's. `exp_out` may be `logits`
    itself: a block reads the max of its rows before it writes them.
    """
    lse, sums = np.empty((2, logits.shape[0]))

    def block(rows):
        m = logits[rows].max(axis=1, keepdims=True)
        e = np.subtract(logits[rows], m, out=None if exp_out is None else exp_out[rows])
        np.exp(e, out=e)
        sums[rows] = e.sum(axis=1)
        lse[rows] = m[:, 0] + np.log(sums[rows])

    each_block(block, _row_blocks(*logits.shape))
    return lse, sums


def nll_rows(logits, targets):
    """Per-row NLL of integer targets under logit rows; arrays, stable log-sum-exp."""
    return _log_sum_exp(logits, None)[0] - logits[np.arange(logits.shape[0]), targets]


def cross_entropy_mean(logits, targets):
    """Mean negative log-likelihood of integer targets under row logits.

    Stable log-sum-exp; FLOPs: ~6 per logit. With a graph the backward
    reads exp(logits - row max) whole, so the forward keeps that array.
    When the logits are an interior result of the graph that nothing but
    this call references, nor their array (`_owned`: in `host.train`,
    `cross_entropy_mean(lm_forward(...), targets)`), it is taken in the
    logits' own buffer, after the target logits are read, and that buffer
    is the call's one (T, vocab) array. Nothing can read the logits
    afterwards, so the loss and the gradient are the same bits either
    way. Any other call, on a leaf or on logits a name, a container, a
    view or a wrapper's arguments still hold, or without a graph, leaves
    the logits as they are.
    """
    counts = _ref_counts(logits)   # first: no other name binds the Tensor or its array yet
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise ShapeError(
            f"cross_entropy_mean: logits {logits.data.shape}, targets {targets.shape}")
    t, v = logits.data.shape
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"cross_entropy_mean: target id out of range [0, {v})")
    FLOPS.add("other", 6 * logits.data.size)
    ld = logits.data
    picked = ld[np.arange(t), targets]
    if _owned(logits, counts):
        e = ld
    else:
        e = np.empty_like(ld) if _records((logits,)) else None
    lse, sums = _log_sum_exp(ld, e)
    out = np.array((lse - picked).mean())

    def bwd(g, nlogits):
        p = e                # the softmax, made in the buffer the closure alone holds
        p /= sums[:, None]
        p[np.arange(t), targets] -= 1.0
        p *= float(g) / t
        nlogits._take(p)

    return _make(out, (logits,), bwd)


def tsum(a):
    """Sum of all elements as a scalar node."""
    shape_in = a.data.shape
    FLOPS.add("other", a.data.size)
    out = np.array(np.add.reduce(a.data, axis=None))   # a.data.sum()

    def bwd(g, na):
        na._take(np.full(shape_in, float(g)))

    return _make(out, (a,), bwd)
