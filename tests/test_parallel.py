"""`hici.parallel`: the kernel worker pool and the forked parts.

A kernel call of at least `POOL_MIN_BLOCKS` blocks runs its blocks on the
pool's threads and the caller's. These tests pin that the pooled path
gives every bit of the serial one, signed zeros included, for each pooled
kernel: `attention` forward and backward, `gelu` forward and backward,
`layer_norm` backward, `nll_rows` and `cross_entropy_mean`. They pin that
each block runs once, in the caller's numpy error state, that a block's
exception reaches the caller with its own type, and that a process which
has started the pool still forks cleanly for the gradient check. The
last tests pin `run_parts`: independent jobs give the same values, in
part order, on one part and on three; a child's exception or exit
reaches the caller; and no child is left behind.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hici import parallel
from hici.parallel import POOL_MIN_BLOCKS
from hici.tensor import (
    SCORE_BUDGET, Tensor, attention, backward, cross_entropy_mean, gelu, layer_norm, mul_const,
    nll_rows, no_grad, parameter, tsum)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` sizes the pool as if this process could run on n CPUs: with
    1 there is no pool; with n > 1 it holds n - 1 threads."""
    def use(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
        parallel._stop_pool()

    yield use
    parallel._stop_pool()


def _serial_and_pooled(cpus, run, n_cpus=(2, 4)):
    """`run()` with one CPU, then on pools of each size in `n_cpus` (4 is more
    threads than this host may have CPUs)."""
    results = []
    for n in (1,) + n_cpus:
        cpus(n)
        results.append(run())
        assert (parallel._POOL.get("workers") is None) == (n == 1)   # pooled iff a pool exists
    return results


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


def test_attention_pooled_equals_serial(cpus):
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

            for run in (graph_free, probed, recorded, recorded_probed):
                _assert_all_same(_serial_and_pooled(cpus, run))


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

        _assert_all_same(_serial_and_pooled(cpus, run))


def test_gelu_pooled_equals_serial(cpus):
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

    for run in (graph_free, recorded):
        _assert_all_same(_serial_and_pooled(cpus, run))


def test_layer_norm_backward_pooled_equals_serial(cpus):
    rng = np.random.default_rng(43)
    n_rows = POOL_MIN_BLOCKS * (SCORE_BUDGET // 33) + 17   # whole row blocks and a part
    x = rng.normal(scale=2.0, size=(n_rows, 33))
    gain, bias, upstream = rng.normal(size=33), rng.normal(size=33), rng.normal(size=x.shape)

    def run():
        ps = [parameter(a) for a in (x, gain, bias)]
        y = layer_norm(*ps)
        backward(tsum(mul_const(y, upstream)))
        return [y.data] + [p.grad for p in ps]

    _assert_all_same(_serial_and_pooled(cpus, run))


def test_loss_kernels_pooled_equal_serial(cpus):
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

    for run in (nll, cross_entropy):
        _assert_all_same(_serial_and_pooled(cpus, run))


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
if sys.argv[2] == "pool-first":
    with tensor.no_grad():
        tensor.gelu(big)
    assert threading.active_count() == 2, threading.active_count()
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
    # children and a child that runs a pooled kernel neither hang nor differ
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

    assert run("pool-first") == run("fresh")


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
