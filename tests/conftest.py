# makes oracles.py and pools.py importable from every test module
import pytest

from hici import parallel


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` sizes the pool as if this process could run on n CPUs: with
    1 there is no pool; with n > 1 it holds n - 1 threads."""
    def use(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
        parallel._stop_pool()

    yield use
    parallel._stop_pool()
