"""Tests for the runner's process-local alone cache: priming from
campaign hints and key normalisation."""

import pytest

from repro.config import SimConfig
from repro.experiments import runner
from repro.experiments.runner import (
    alone_ipc,
    clear_alone_cache,
    prime_alone_cache,
)
from repro.workloads.spec import benchmark

CFG = SimConfig(run_cycles=30_000)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_alone_cache()
    yield
    clear_alone_cache()


class TestPrime:
    def test_prime_hits_without_simulation(self, monkeypatch):
        spec = benchmark("mcf")
        prime_alone_cache(spec, CFG, 0, 2.5)
        monkeypatch.setattr(
            runner, "workload_from_specs",
            lambda *a, **k: pytest.fail("simulated despite primed hint"),
        )
        assert alone_ipc(spec, CFG, 0) == 2.5

    def test_prime_is_seed_specific(self):
        spec = benchmark("mcf")
        prime_alone_cache(spec, CFG, 0, 2.5)
        assert runner._alone_key(spec, CFG, 1) not in runner._ALONE_CACHE


class TestKeyNormalisation:
    def test_num_threads_and_seed_field_shared(self):
        """L1 key ignores num_threads and config.seed (alone = 1 thread)."""
        spec = benchmark("mcf")
        k = runner._alone_key(spec, CFG, 0)
        assert runner._alone_key(spec, CFG.with_(num_threads=8), 0) == k
        assert runner._alone_key(spec, CFG.with_(seed=7), 0) == k
        assert runner._alone_key(spec, CFG.with_(num_channels=2), 0) != k
