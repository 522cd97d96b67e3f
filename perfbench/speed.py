"""Machine speed, probed next to the timed work.

The shared machine the benchmark was written on switches, for seconds
to many minutes at a time, between a fast and a slow state in which the
same code runs 15-45 % slower. A probe times one run of a fixed kernel
(a Python loop around small numpy operations and one mid-size matmul,
about 3 ms); the kernel belongs to the benchmark, so no change to `src/`
moves it. One probe is noisy (+-15 % from one run to the next), so a
run takes hundreds and uses their median.

The kernel is almost all arithmetic, so it slows more than the program,
which also waits on memory: when the median probe fell 25-35 %, the
program's ops fell 5-18 %. `scale` therefore corrects by the square root
of the probe's change (SENSITIVITY). Whatever the exponent, two versions
of the program measured in the same machine state are scaled by the
same factor; the exponent only sets how much of a change of state is
cancelled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.003  # kernel seconds at the reference speed
SENSITIVITY = 0.5    # program time ~ kernel time ** SENSITIVITY across machine states

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(64, 32))
_W = _rng.normal(size=(32, 32))
_A = _rng.normal(size=(512, 32))
_B = _rng.normal(size=(32, 128))


def kernel():
    acc = 0.0
    for i in range(200):
        h = np.tanh(_X @ _W)
        acc += float(h.sum()) * 0.5 + i
    acc += float((_A @ _B).sum())
    return acc


def probe():
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(probes):
    """Factor that turns wall seconds measured among `probes` into seconds
    at the reference speed."""
    return (REFERENCE_S / statistics.median(probes)) ** SENSITIVITY
