"""Every bit of the numerical results in `tests/digest.txt`, rechecked.

`tests/digest.py --tier1` runs in a subprocess, which pins one BLAS
thread before numpy loads, and its lines must equal the committed ones
but for the two `check_module_gradients` items it leaves out. It runs
twice: on every CPU this process may use, where the kernels of
`hici.tensor` run multi-block calls on their worker pool, and pinned to
one CPU, where there is no pool and every kernel runs serially. The
lines hold for the numpy and BLAS build named in the file's first line;
on another build the bits may differ legitimately, so there the test
skips and names both builds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DIGEST = Path(__file__).with_name("digest.py")
GOLDEN = Path(__file__).with_name("digest.txt")


def _digest(*args, preexec_fn=None):
    run = subprocess.run([sys.executable, str(DIGEST), *args], capture_output=True, text=True,
                         preexec_fn=preexec_fn)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def _tier1_golden():
    built_with, *golden = GOLDEN.read_text().splitlines()
    this_build = _digest("--build")[0]
    if this_build != built_with:
        pytest.skip(f"tests/digest.txt comes from {built_with[2:]}; this is {this_build[2:]}")
    return [line for line in golden if "check_module_gradients" not in line]


def test_digest_lines_match_the_committed_ones():
    assert _digest("--tier1") == _tier1_golden()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_digest_lines_match_the_committed_ones_on_one_cpu():
    golden = _tier1_golden()
    one_cpu = {min(os.sched_getaffinity(0))}
    assert _digest("--tier1", preexec_fn=lambda: os.sched_setaffinity(0, one_cpu)) == golden
