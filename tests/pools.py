"""Run a check with one CPU and on kernel pools of other sizes.

The `cpus` fixture (in conftest.py) sizes the pool; `serial_and_pooled`
runs a check once per size, so a test can compare the serial bits with
the pooled ones.
"""

from hici import parallel


def serial_and_pooled(cpus, run, n_cpus=(2, 4)):
    """`run()` with one CPU, then on pools of each size in `n_cpus` (4 is more
    threads than this host may have CPUs)."""
    results = []
    for n in (1,) + n_cpus:
        cpus(n)
        results.append(run())
        assert (parallel._POOL.get("workers") is None) == (n == 1)   # pooled iff a pool exists
    return results
