"""Every CPU this process may use: kernel threads and forked parts.

`usable_cpus` is the one CPU rule. It sizes the kernel worker pool
(`each_block`: `usable_cpus() - 1` threads and the caller) and the
number of forked parts a job is cut into (`processes`, for `run_parts`).

A `Lane` runs jobs beside the caller on the same pool: serially, one at
a time, in the order they were submitted (a FIFO queue that one drain at
a time empties, never the executor's order), each in a copy of its
submitter's context, so numpy's `errstate` holds there too. `backward`
opens one per sweep and joins it before it returns or raises; its user
keeps at most one product in flight by joining before each (`tensor`
says which products). `open_lane` gives None unless the pool is
already running, so a process that never pools never has a lane. A
lane's jobs are tasks of the pool's executor, so the before-fork hook,
which shuts the executor down and waits for its tasks, joins the lane
as well.

A forked child holds only the thread that forked. The pool's threads are
joined before every fork (`os.register_at_fork`), so a fork happens
while no pool thread is alive, even after a large training step has
started the pool; a child that inherited a pool record drops it, and
one that runs a multi-block kernel starts a pool of its own, never
submitting to threads it does not have. BLAS threads are not joined:
with two OpenBLAS threads running, the children of a gradient check
still gave the bits of a one-process check (Python 3.11, scipy-openblas
0.3.31). Python 3.12 and later warn when a process with more than one
thread forks, and pyproject's `filterwarnings = error` turns that
warning into a test failure, so there the tests need one BLAS thread
(`OPENBLAS_NUM_THREADS=1`). That case, and whether a just-joined pool
thread still counts at the fork there, is untested: the tests have run
on Python 3.11 only, which does not warn.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import signal
import threading
import traceback
from collections import deque

# A kernel call of fewer blocks runs serially: a pooled call waits for a thread
# to wake on each side, about 0.1 ms each on a 2-vCPU VM, which 4 or 5 blocks
# (the train benchmark's attention and loss) did not earn back.
POOL_MIN_BLOCKS = 8


def usable_cpus():
    """The CPUs this process may run on: those of `os.sched_getaffinity`, or
    `os.cpu_count()` where that does not exist."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def processes():
    """Parts to cut a job into for `run_parts`: `usable_cpus()`, or 1 without `os.fork`."""
    return usable_cpus() if hasattr(os, "fork") else 1


# ---------------------------------------------------------------------------
# kernel threads

_POOL_LOCK = threading.Lock()
_POOL = {}   # "workers": (executor, its thread count), or None with one CPU; unset until used


def _pool(n_blocks):
    """The kernel worker pool for a call of `n_blocks` blocks, or None: below
    `POOL_MIN_BLOCKS` blocks, and with one CPU. It starts on first use."""
    if n_blocks < POOL_MIN_BLOCKS:
        return None
    with _POOL_LOCK:
        if "workers" not in _POOL:
            # imported here: 0.6 MB a process that never pools does not need
            from concurrent.futures import ThreadPoolExecutor
            n = usable_cpus() - 1
            _POOL["workers"] = (ThreadPoolExecutor(n, "hici-kernel"), n) if n > 0 else None
        return _POOL["workers"]


def pooled(n_blocks):
    """Whether `each_block` runs a call of `n_blocks` blocks on the pool."""
    return _pool(n_blocks) is not None


def _stop_pool():
    """Join the pool's threads; the next multi-block call starts a new pool."""
    with _POOL_LOCK:
        workers = _POOL.pop("workers", None)
    if workers is not None:
        workers[0].shutdown()


def _forget_pool():
    """In a forked child: drop any pool the parent started after `_stop_pool`,
    whose threads the child does not have."""
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()
    _POOL.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_pool, after_in_child=_forget_pool)


def each_block(fn, blocks):
    """fn(blk) for every blk of the list `blocks`: serially unless `pooled`,
    else on the pool's threads and the caller's.

    Each thread takes the next block from one shared list iterator (`next` on
    it is one C call, atomic under the interpreter lock) until none is left.
    A worker runs in a copy of the caller's context, so numpy's `errstate`
    holds there too. The call returns once every thread is done, and raises
    what a block raised, with its own type.
    """
    workers = _pool(len(blocks))
    if workers is None:
        for blk in blocks:
            fn(blk)
        return
    todo = iter(blocks)

    def drain():
        for blk in todo:
            fn(blk)

    executor, n = workers
    futures = [executor.submit(contextvars.copy_context().run, drain) for _ in range(n)]
    try:
        drain()
    finally:   # waits for every worker: none writes into the caller's arrays after this
        errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error


class Lane:
    """Jobs run one at a time, in submission order, on the kernel pool's threads.

    `submit` queues a job and, unless a drain is already queued or
    running, hands the executor one drain that runs the queue until it is
    empty, so two jobs never run at once, also on a pool of many threads.
    A job runs in a copy of its submitter's context. When a job raises,
    the jobs queued behind it are dropped, later ones are not queued, and
    `join` raises the error.
    """

    def __init__(self, executor):
        self._executor = executor
        self._jobs = deque()   # (context, fn, args), oldest first
        self._idle = threading.Condition(threading.Lock())
        self._draining = False
        self._error = None

    def submit(self, fn, *args):
        """Queue fn(*args) behind every job submitted before it."""
        job = (contextvars.copy_context(), fn, args)
        with self._idle:
            if self._error is not None:
                return
            self._jobs.append(job)
            if not self._draining:
                self._executor.submit(self._drain)
                self._draining = True

    def _drain(self):
        """On a pool thread: run the queued jobs until none is left."""
        while True:
            with self._idle:
                if not self._jobs:
                    self._draining = False
                    self._idle.notify_all()
                    return
                context, fn, args = self._jobs.popleft()
            try:
                context.run(fn, *args)
            except BaseException as error:   # raised again by `join`
                with self._idle:
                    self._error = error
                    self._jobs.clear()

    def join(self):
        """Wait until every queued job has run, then raise what a job raised,
        with its own type; the lane takes jobs again afterwards."""
        with self._idle:
            self._idle.wait_for(lambda: not self._draining)
            error, self._error = self._error, None
        if error is not None:
            raise error


def open_lane():
    """A new `Lane` on the kernel pool if the pool is running, else None; it
    never starts the pool."""
    workers = _POOL.get("workers")
    return None if workers is None else Lane(workers[0])


# ---------------------------------------------------------------------------
# forked parts

def _serve_part(fn, part, write_end):
    """Child side: run part `part`, send the outcome through the pipe, exit."""
    status = 1
    try:
        with os.fdopen(write_end, "wb") as pipe:
            try:
                outcome = (None, fn(part))
            except Exception as exc:   # raised again by the parent
                outcome = (exc, traceback.format_exc())
            pipe.write(pickle.dumps(outcome))
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)   # never unwind into the parent's frames


def _received(data, status, part):
    """Parent side: the result a child sent, or raise what it raised."""
    if not data:
        raise ChildProcessError(f"part {part} sent nothing (wait status {status})")
    exc, sent = pickle.loads(data)   # `sent`: the result, or the traceback of `exc`
    if exc is not None:
        raise exc from ChildProcessError(f"part {part} raised:\n{sent}")
    return sent


def run_parts(fn, n_parts):
    """[fn(0), ..., fn(n_parts - 1)]: part 0 in this process, each later part
    in a forked child that sends its result back, pickled, over a pipe.

    Only what `fn` returns comes back from a child, not what it changed in
    its process (a count it added, say). Every child is reaped before this
    returns or raises. A child's exception is raised again here with its own
    type, from a `ChildProcessError` that names the part and holds the
    child's traceback; a child that sends nothing (it exited, or its result
    does not pickle) gives a `ChildProcessError`.
    """
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
                _serve_part(fn, part, write_end)
            os.close(write_end)
            children[-1][0] = pid
        results = [fn(0)]
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
