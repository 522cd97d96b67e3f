"""`hici.parallel`: the kernel worker pool and the forked parts.

A kernel call of at least `POOL_MIN_BLOCKS` blocks runs its blocks on the
pool's threads and the caller's. These tests pin that the pooled path
gives every bit of the serial one, signed zeros included, for each pooled
kernel: `attention` forward and backward, `gelu` forward and backward,
`layer_norm` backward, `nll_rows` and `cross_entropy_mean`; and that on
one CPU the same kernels give the same bits in blocks of `SCORE_BUDGET`
as in one block of everything, so only `each_block` decides where a
block runs. They pin that each block runs once, in the caller's numpy
error state, that a block's exception reaches the caller with its own
type, and that a process which has started the pool, or used a
backward's lane, still forks cleanly for the gradient check.

The lane tests pin that a `Lane` runs its jobs one at a time in
submission order, also on a pool of three threads; that a job's error
comes out of the next `submit`, whose job then does not run, or `join`,
with its own type, and the lane takes jobs again; that a leaf whose
terms go through the lane gets the bits of the serial sum, in an order
where the order shows; that a strict-train step gives the same bits on
one CPU and on two; that a lane error reaches the caller of `backward`
with its own type, from the caller's error state, and leaves no job in
flight; that `backward` joins the lane before it raises; and that the
lane adds at most one deferred product's memory to a backward's peak.

The last tests pin `run_parts`: independent jobs give the same values, in
part order, on one part and on three; a child's exception or exit
reaches the caller; and no child is left behind.
"""

import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hici import host, parallel, tensor
from hici.attention import named_tensors
from hici.config import SCOPE_PRECEDING, HiCIConfig, HostConfig
from hici.parallel import POOL_MIN_BLOCKS
from hici.tensor import (
    SCORE_BUDGET, Tensor, _make, add, attention, backward, cross_entropy_mean, gelu, layer_norm,
    matmul, mul_const, nll_rows, no_grad, parameter, tsum)

from pools import serial_and_pooled

SRC = Path(__file__).resolve().parent.parent / "src"


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _assert_all_same(results):
    serial, *pooled = results
    for other in pooled:
        assert len(other) == len(serial)
        for a, b in zip(serial, other):
            _assert_same_bits(a, b)


def test_pool_serves_calls_of_enough_blocks_on_more_than_one_cpu(cpus):
    cpus(2)
    assert parallel._pool(POOL_MIN_BLOCKS - 1) is None
    executor, n_threads = parallel._pool(POOL_MIN_BLOCKS)
    assert n_threads == 1
    cpus(1)
    assert parallel._pool(1 << 20) is None


def test_each_block_runs_every_block_once_across_threads(cpus):
    # more threads than CPUs and a short switch interval: a block lost or run
    # twice by the shared iterator would show in the count
    cpus(8)
    blocks = list(range(500))
    ran, threads = [], set()

    def fn(blk):
        ran.append(blk)
        threads.add(threading.get_ident())
        if blk % 50 == 0:
            time.sleep(0.002)   # let every thread take blocks

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran.clear()
            parallel.each_block(fn, blocks)
            assert sorted(ran) == blocks
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1


def _attention_runs():
    """Runs of `attention` over 400 blocks, 12 chunks of at most `SCORE_BUDGET`
    scores and a partial one: graph-free, probed, recorded and recorded and
    probed, with a per-block and a shared q, with and without the mask."""
    rng = np.random.default_rng(40)
    n_blocks, n_heads, n_queries, n_keys, width = 400, 2, 16, 24, 12
    assert n_blocks % (SCORE_BUDGET // (n_heads * n_queries * n_keys)) != 0   # a partial chunk
    k, v = rng.normal(scale=3.0, size=(2, n_blocks, n_keys, width))
    upstream = rng.normal(size=(n_blocks, n_queries, width))
    hidden = ~np.tril(np.ones((n_queries, n_keys), dtype=bool), k=8)
    for q in (rng.normal(scale=3.0, size=(n_blocks, n_queries, width)),
              rng.normal(scale=3.0, size=(n_queries, width))):
        for mask in (None, hidden):
            def graph_free(probe=None):
                with no_grad():
                    out = attention(Tensor(q), Tensor(k), Tensor(v), n_heads, hidden=mask,
                                    probe=probe).data
                return [out]

            def probed():
                seen = []
                return graph_free(seen.append) + seen

            def recorded(probe=None):
                qt, kt, vt = parameter(q), parameter(k), parameter(v)
                y = attention(qt, kt, vt, n_heads, hidden=mask, probe=probe)
                backward(tsum(mul_const(y, upstream)))
                return [y.data, qt.grad, kt.grad, vt.grad]

            def recorded_probed():
                seen = []
                return recorded(seen.append) + seen

            yield from (graph_free, probed, recorded, recorded_probed)


def _gelu_runs():
    """`gelu` graph-free and recorded, on more than `POOL_MIN_BLOCKS` blocks
    and a partial one, signed zeros and a subnormal among the inputs."""
    rng = np.random.default_rng(42)
    x = rng.normal(scale=4.0, size=(2100, 131))
    x[0, :3] = (0.0, -0.0, -1e-300)
    assert x.size > POOL_MIN_BLOCKS * SCORE_BUDGET and x.size % SCORE_BUDGET != 0
    upstream = rng.normal(size=x.shape)

    def graph_free():
        with no_grad():
            return [gelu(Tensor(x)).data]

    def recorded():
        p = parameter(x)
        y = gelu(p)
        backward(tsum(mul_const(y, upstream)))
        return [y.data, p.grad]

    yield from (graph_free, recorded)


def _layer_norm_runs():
    """A recorded `layer_norm` whose backward runs whole row blocks and a part."""
    rng = np.random.default_rng(43)
    n_rows = POOL_MIN_BLOCKS * (SCORE_BUDGET // 33) + 17
    x = rng.normal(scale=2.0, size=(n_rows, 33))
    gain, bias, upstream = rng.normal(size=33), rng.normal(size=33), rng.normal(size=x.shape)

    def run():
        ps = [parameter(a) for a in (x, gain, bias)]
        y = layer_norm(*ps)
        backward(tsum(mul_const(y, upstream)))
        return [y.data] + [p.grad for p in ps]

    yield run


def _loss_runs():
    """`nll_rows`, and `cross_entropy_mean` recorded and graph-free, over
    `POOL_MIN_BLOCKS` row blocks and a part."""
    rng = np.random.default_rng(44)
    n_rows = POOL_MIN_BLOCKS * (SCORE_BUDGET // 257) + 5
    logits = rng.normal(scale=5.0, size=(n_rows, 257))
    targets = rng.integers(0, 257, size=n_rows)

    def nll():
        return [nll_rows(logits, targets)]

    def cross_entropy():
        p = parameter(logits)
        loss = cross_entropy_mean(p, targets)
        backward(loss)
        with no_grad():
            free = cross_entropy_mean(Tensor(logits), targets)
        return [loss.data, p.grad, free.data]

    yield from (nll, cross_entropy)


def test_attention_pooled_equals_serial(cpus):
    for run in _attention_runs():
        _assert_all_same(serial_and_pooled(cpus, run))


def test_attention_pooled_equals_serial_for_one_input_needing_a_gradient(cpus):
    # a backward that hands over the gradient of v alone, or of q alone
    rng = np.random.default_rng(41)
    q, k, v = rng.normal(size=(3, 600, 16, 12))
    upstream = rng.normal(size=(600, 16, 12))
    for which in range(3):
        def run():
            ts = [parameter(a) if i == which else Tensor(a) for i, a in enumerate((q, k, v))]
            y = attention(*ts, 2)
            backward(tsum(mul_const(y, upstream)))
            return [y.data, ts[which].grad]

        _assert_all_same(serial_and_pooled(cpus, run))


def test_gelu_pooled_equals_serial(cpus):
    for run in _gelu_runs():
        _assert_all_same(serial_and_pooled(cpus, run))


def test_layer_norm_backward_pooled_equals_serial(cpus):
    for run in _layer_norm_runs():
        _assert_all_same(serial_and_pooled(cpus, run))


def test_loss_kernels_pooled_equal_serial(cpus):
    for run in _loss_runs():
        _assert_all_same(serial_and_pooled(cpus, run))


def test_on_one_cpu_the_bits_do_not_depend_on_the_chunking(cpus, monkeypatch):
    # every kernel call in blocks of `SCORE_BUDGET`, then in one block of everything
    cpus(1)
    sizes = []   # the block count of each `each_block` call
    run_blocks = tensor.each_block

    def counted(fn, blocks):
        sizes.append(len(blocks))
        run_blocks(fn, blocks)

    monkeypatch.setattr(tensor, "each_block", counted)
    for runs in (_attention_runs, _gelu_runs, _layer_norm_runs, _loss_runs):
        for run in runs():
            sizes.clear()
            chunked = run()
            assert max(sizes) > 1
            with monkeypatch.context() as whole_stack:
                whole_stack.setattr(tensor, "SCORE_BUDGET", 1 << 62)
                sizes.clear()
                whole = run()
                assert set(sizes) <= {1}   # a one-chunk attention forward skips `each_block`
            _assert_all_same([chunked, whole])


def test_workers_run_in_the_callers_numpy_error_state(cpus):
    cpus(2)
    blocks = list(range(40))
    seen = {}

    def fn(blk):
        time.sleep(0.001)   # let the worker thread take blocks too
        seen[threading.get_ident()] = np.geterr()["invalid"]

    with np.errstate(invalid="raise"):
        parallel.each_block(fn, blocks)
    assert len(seen) == 2 and set(seen.values()) == {"raise"}


def test_a_workers_exception_reaches_the_caller_with_its_own_type(cpus):
    cpus(2)
    blocks = list(range(40))
    caller = threading.get_ident()

    class BlockFailed(Exception):
        pass

    def fn(blk):
        time.sleep(0.001)
        if threading.get_ident() != caller:
            raise BlockFailed(blk)

    with pytest.raises(BlockFailed):
        parallel.each_block(fn, blocks)
    ran = []
    parallel.each_block(ran.append, blocks)   # the pool still works
    assert sorted(ran) == blocks


def test_an_infinite_score_raises_under_errstate_on_both_paths(cpus):
    rng = np.random.default_rng(45)
    q, k, v = rng.normal(size=(3, 600, 16, 12))
    q[550, 3, 0] = np.inf   # inf - inf in that row's softmax
    for n in (1, 2):
        cpus(n)
        for grad in (False, True):
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                if grad:
                    attention(parameter(q), Tensor(k), Tensor(v), 2)
                else:
                    with no_grad():
                        attention(Tensor(q), Tensor(k), Tensor(v), 2)
        assert (parallel._POOL.get("workers") is None) == (n == 1)


def _start_pool():
    """Run a pooled kernel: with more than one CPU the pool now runs, so a
    backward opens a lane."""
    with no_grad():
        gelu(Tensor(np.zeros(POOL_MIN_BLOCKS * SCORE_BUDGET)))


@pytest.fixture
def lane_jobs(monkeypatch):
    """The function name of every job submitted to a lane, in submission order."""
    names = []
    submit = parallel.Lane.submit

    def recorded(lane, fn, *args):
        names.append(fn.__name__)
        submit(lane, fn, *args)

    monkeypatch.setattr(parallel.Lane, "submit", recorded)
    return names


def test_a_lane_runs_its_jobs_one_at_a_time_in_submission_order(cpus):
    cpus(4)   # three pool threads, any of which may take a drain
    _start_pool()
    lane = parallel.open_lane()
    ran, running, overlaps = [], [0], []

    def job(i):
        running[0] += 1
        overlaps.append(running[0])
        if i % 25 == 0:
            time.sleep(0.002)   # let other threads run meanwhile
        ran.append(i)
        running[0] -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(300):
            lane.submit(job, i)
            if i % 60 == 59:
                lane.join()
        lane.join()
    finally:
        sys.setswitchinterval(interval)
    assert ran == list(range(300)) and set(overlaps) == {1}


def test_a_lanes_error_is_raised_by_the_next_submit_or_join(cpus):
    cpus(2)
    _start_pool()
    lane = parallel.open_lane()
    ran = []

    class JobFailed(Exception):
        pass

    def job(i):
        if i in (1, 4):
            raise JobFailed(i)
        ran.append(i)

    lane.submit(job, 0)
    lane.submit(job, 1)
    with pytest.raises(JobFailed) as info:
        lane.submit(job, 2)   # job 1's error; job 2 is not run
    assert info.value.args == (1,)
    lane.submit(job, 3)   # the lane takes jobs again
    lane.submit(job, 4)
    with pytest.raises(JobFailed) as info:
        lane.join()
    assert info.value.args == (4,) and lane._job is None
    lane.join()
    assert ran == [0, 3]


def test_there_is_no_lane_without_a_running_pool(cpus):
    cpus(2)
    assert parallel.open_lane() is None   # the pool has not started
    _start_pool()
    assert parallel.open_lane() is not None
    cpus(1)
    _start_pool()
    assert parallel.open_lane() is None


def test_a_leafs_terms_on_the_lane_keep_the_serial_bits_and_order(cpus, lane_jobs):
    # W is read by three pool-sized matmuls and, before them in the graph, by a
    # small elementwise op, whose term the sweep reaches after W has lane work.
    # The matmul terms at [0, 0] are 1e16, 1 and -1e16, so their sum there is 0
    # or 1 by order; an adjoint entry of -0.0 rides along.
    rng = np.random.default_rng(46)
    m, k, n = SCORE_BUDGET // 8, 3, 8
    xs = rng.normal(size=(3, m, k))
    xs[:, :, 0] = 0.0
    xs[:, 0, 0] = 1.0   # so a term's [0, 0] is its adjoint's [0, 0]
    us = rng.normal(size=(3, m, n))
    us[:, 0, 0] = (1e16, 1.0, -1e16)
    us[:, 1, 1] = -0.0
    w, c = rng.normal(size=(2, k, n))
    c[0, 0] = 0.0
    started = Tensor(np.zeros(POOL_MIN_BLOCKS * SCORE_BUDGET))   # a pooled gelu starts the pool
    jobs = []

    def run():
        W = parameter(w)
        loss = add(tsum(mul_const(W, c)), tsum(gelu(started)))
        for x, u in zip(xs, us):
            loss = add(loss, tsum(mul_const(matmul(Tensor(x), W), u)))
        lane_jobs.clear()
        backward(loss)
        jobs.append(list(lane_jobs))
        return [W.grad]

    results = serial_and_pooled(cpus, run)
    _assert_all_same(results)
    on_lane = ["_take_weight_grad"] * 3 + ["_take"]   # the elementwise term follows them there
    assert jobs == [[], on_lane, on_lane]
    assert results[0][0][0, 0] in (0.0, 1.0)


STRICT_TRAIN = HostConfig(
    vocab_size=host.BYTE_VOCAB, n_layers=1, d=32, ffn_width=128, max_T=2048, seed=0,
    hici=HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8, global_scope=SCOPE_PRECEDING))


def test_a_strict_train_step_gives_the_same_bits_on_one_cpu_and_on_two(cpus, lane_jobs):
    # under this process's own BLAS threads; tests/digest.py checks the same
    # shapes with one BLAS thread
    corpus = np.random.default_rng(47).integers(0, 256, size=1 << 13)
    used = []

    def run():
        lane_jobs.clear()
        params, opt, _, trace = host.train(corpus, STRICT_TRAIN, 2)
        used.append(len(lane_jobs))
        tensors = named_tensors(params)
        return ([np.array([loss for _, loss, _ in trace])]
                + [tensors[name].data for name in sorted(tensors)]
                + [tensors[name].grad for name in sorted(tensors)]
                + [moments[name] for moments in (opt.m, opt.v) for name in sorted(moments)])

    _assert_all_same(serial_and_pooled(cpus, run, n_cpus=(2,)))
    assert used[0] == 0 and used[1] > 0


def _overflowing_backward(rng, spike):
    """A backward whose pool-sized weight gradient x^T g overflows when
    x[0, 0] = `spike` is 1e200; its forward and its input gradient do not."""
    m, k, n = SCORE_BUDGET // 8, 4, 8
    x = rng.normal(size=(m, k))
    x[0, 0] = spike
    w = parameter(rng.normal(scale=1e-200, size=(k, n)))
    backward(tsum(mul_const(matmul(Tensor(x), w), np.full((m, n), 1e200))))
    return w.grad


def test_a_deferred_products_error_reaches_backwards_caller_and_leaves_nothing_queued(
        cpus, lane_jobs, monkeypatch):
    lanes = []
    open_lane = parallel.open_lane

    def recorded():
        lanes.append(open_lane())
        return lanes[-1]

    monkeypatch.setattr(tensor, "open_lane", recorded)
    for n in (1, 2):
        cpus(n)
        _start_pool()
        clean = _overflowing_backward(np.random.default_rng(49), 1.0)
        lane_jobs.clear()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _overflowing_backward(np.random.default_rng(49), 1e200)
        # on two CPUs the product overflowed on the lane, in the caller's error state
        assert lane_jobs == ["_take_weight_grad"] * (n - 1)
        assert lanes[-1] is None or lanes[-1]._job is None
        _assert_same_bits(_overflowing_backward(np.random.default_rng(49), 1.0), clean)
    assert sum(lane is not None for lane in lanes) == 3


def test_backward_joins_the_lane_before_a_closures_exception_propagates(cpus, monkeypatch):
    cpus(2)
    _start_pool()
    finished = []
    take = tensor._take_weight_grad

    def slow(leaf, a, g):
        time.sleep(0.2)
        take(leaf, a, g)
        finished.append(leaf)

    monkeypatch.setattr(tensor, "_take_weight_grad", slow)

    class ClosureFailed(Exception):
        pass

    def fail(g, nx):
        raise ClosureFailed

    rng = np.random.default_rng(50)
    x = _make(rng.normal(size=(SCORE_BUDGET // 8, 4)), (parameter(np.zeros(1)),), fail)
    w = parameter(rng.normal(size=(4, 8)))
    loss = tsum(matmul(x, w))   # the sweep defers w's product, then runs `fail`
    with pytest.raises(ClosureFailed):
        backward(loss)
    assert finished == [w] and w.grad is not None


def test_the_lane_adds_at_most_one_deferred_product_to_a_backwards_peak(cpus, monkeypatch):
    # a chain of matmuls whose weight gradients all go to the lane, each job
    # slowed down so that it holds its adjoint as long as it can: more than one
    # product in flight would show in the traced peak
    take = tensor._take_weight_grad
    deferred = []   # the bytes of each deferred adjoint and its product

    def slow(leaf, a, g):
        deferred.append(g.nbytes + leaf.data.nbytes)
        time.sleep(0.01)
        take(leaf, a, g)

    monkeypatch.setattr(tensor, "_take_weight_grad", slow)
    rng = np.random.default_rng(51)
    m, d, depth = SCORE_BUDGET // 16, 32, 8
    x, u = rng.normal(size=(2, m, d))
    ws = rng.normal(scale=d ** -0.5, size=(depth, d, d))

    def peak():
        tracemalloc.start()
        try:
            h = Tensor(x)
            for w in ws:
                h = matmul(h, parameter(w))
            loss = tsum(mul_const(h, u))
            tracemalloc.reset_peak()
            backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cpus(1)
    peak()   # the first run pays one-off allocations
    serial = peak()
    cpus(2)
    _start_pool()
    peak()
    deferred.clear()
    pooled = peak()
    assert len(deferred) == depth
    assert pooled <= serial + max(deferred), (pooled, serial, max(deferred))


_FORK_AFTER_POOL = """
import os, sys, threading
sys.path.insert(0, sys.argv[1])
import numpy as np
from hici import gradcheck, parallel, tensor
from hici.analysis import MICRO_CFG

parallel.usable_cpus = lambda: 2
threads_at_fork = []
os.register_at_fork(after_in_parent=lambda: threads_at_fork.append(threading.active_count()))
big = tensor.Tensor(np.linspace(-3.0, 3.0, 8 * tensor.SCORE_BUDGET))
if sys.argv[2] in ("pool-first", "lane-first"):
    with tensor.no_grad():
        tensor.gelu(big)
    assert threading.active_count() == 2, threading.active_count()
if sys.argv[2] == "lane-first":   # a backward whose weight gradient runs on the lane
    deferred = []
    take = tensor._take_weight_grad
    tensor._take_weight_grad = lambda *args: (deferred.append(args[0]), take(*args))
    w = tensor.parameter(np.ones((8, 4)))
    tensor.backward(tensor.tsum(tensor.matmul(tensor.Tensor(big.data.reshape(-1, 8)), w)))
    assert deferred == [w], deferred
errors = gradcheck.check_module_gradients(MICRO_CFG, seed=0)
pid = os.fork()
if pid == 0:   # a child that runs a pooled kernel starts its own pool
    with tensor.no_grad():
        tensor.gelu(big)
    os._exit(0)
_, status = os.waitpid(pid, 0)
assert status == 0 and set(threads_at_fork) == {1}, (status, threads_at_fork)
print(repr(errors))
"""


def test_a_check_forks_cleanly_after_the_pool_started():
    # the pool's threads are joined before each fork, so the gradient check's
    # children and a child that runs a pooled kernel neither hang nor differ,
    # also after a backward used the lane
    def run(mode):
        # in a session of its own, so that a timeout also kills a hung forked child
        with subprocess.Popen([sys.executable, "-c", _FORK_AFTER_POOL, str(SRC), mode],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                raise
        assert proc.returncode == 0, err
        return out

    fresh = run("fresh")
    assert run("pool-first") == fresh and run("lane-first") == fresh


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _job(j):
    """One independent job: values drawn from its own seed, a signed zero among them."""
    values = np.random.default_rng(j).normal(size=5)
    values[j] = -0.0
    return j, values, float(np.tanh(values).sum())


def _jobs_on(n_parts, n_jobs=4):
    """The results of `n_jobs` jobs cut into `n_parts` contiguous parts, in
    job order, and the pid of each part's process."""
    def part_jobs(part):
        lo, hi = (n_jobs * j // n_parts for j in (part, part + 1))
        return os.getpid(), [_job(j) for j in range(lo, hi)]

    parts = parallel.run_parts(part_jobs, n_parts)
    return [result for _, results in parts for result in results], [pid for pid, _ in parts]


def test_jobs_give_the_same_values_in_part_order_on_one_part_and_on_three():
    one, (pid,) = _jobs_on(1)
    three, pids = _jobs_on(3)
    _assert_no_child_left()
    assert pid == pids[0] == os.getpid() and len(set(pids)) == 3
    assert [j for j, _, _ in three] == [j for j, _, _ in one] == [0, 1, 2, 3]
    for (_, values_3, total_3), (_, values, total) in zip(three, one):
        assert values_3.tobytes() == values.tobytes() and total_3.hex() == total.hex()


class PartFailed(Exception):
    """Raised by a part on purpose."""


def test_a_childs_exception_is_raised_again_with_its_type_from_a_child_process_error():
    def fn(part):
        if part == 2:
            raise PartFailed(f"in part {part}")
        return part

    with pytest.raises(PartFailed, match="in part 2") as info:
        parallel.run_parts(fn, 3)
    _assert_no_child_left()
    cause = info.value.__cause__
    assert isinstance(cause, ChildProcessError)
    assert "part 2 raised" in str(cause) and "PartFailed: in part 2" in str(cause)


def test_a_child_that_exits_without_a_result_gives_a_child_process_error():
    def fn(part):
        if part:
            os._exit(3)
        return part

    with pytest.raises(ChildProcessError, match="part 1 sent nothing"):
        parallel.run_parts(fn, 2)
    _assert_no_child_left()


def test_a_failing_first_part_kills_and_reaps_the_children():
    def fn(part):
        if part:
            time.sleep(60)   # killed long before this ends
        raise PartFailed("in part 0")

    start = time.monotonic()
    with pytest.raises(PartFailed, match="in part 0"):
        parallel.run_parts(fn, 3)
    _assert_no_child_left()
    assert time.monotonic() - start < 30
