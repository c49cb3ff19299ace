"""Tests for the stream prefetcher substrate."""

import pytest

from repro.config import SimConfig
from repro.cpu.prefetch import StreamPrefetcher
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.workloads.mixes import Workload

LOC = (0, 1, 5)


class TestStreamPrefetcher:
    def test_no_prefetch_before_streak(self):
        pf = StreamPrefetcher(degree=2)
        assert pf.observe(LOC) == []

    def test_streak_triggers_degree_prefetches(self):
        pf = StreamPrefetcher(degree=3)
        pf.observe(LOC)
        assert pf.observe(LOC) == [LOC, LOC, LOC]
        assert pf.stats.issued == 3

    def test_no_duplicate_inflight(self):
        pf = StreamPrefetcher(degree=2)
        pf.observe(LOC)
        pf.observe(LOC)
        assert pf.observe(LOC) == []   # already in flight

    def test_fill_then_consume(self):
        pf = StreamPrefetcher(degree=1)
        pf.observe(LOC)
        pf.observe(LOC)
        pf.fill(LOC)
        assert pf.consume(LOC)
        assert not pf.consume(LOC)     # credit used up
        assert pf.stats.useful == 1

    def test_consume_misses_other_rows(self):
        pf = StreamPrefetcher(degree=1)
        pf.observe(LOC)
        pf.observe(LOC)
        pf.fill(LOC)
        assert not pf.consume((0, 1, 6))

    def test_streak_resets_on_new_row(self):
        pf = StreamPrefetcher(degree=1)
        pf.observe(LOC)
        pf.observe((0, 1, 9))
        assert pf.observe(LOC) == []   # streak restarted

    def test_buffer_capacity_evicts(self):
        pf = StreamPrefetcher(degree=1)
        for row in range(40):
            loc = (0, 0, row)
            pf.observe(loc)
            pf.observe(loc)
            pf.fill(loc)
        assert pf.stats.evicted > 0

    def test_stream_break_evicts_only_its_banks_stale_rows(self):
        pf = StreamPrefetcher(degree=1)
        for loc in ((0, 1, 5), (0, 1, 6), (0, 2, 5)):
            pf.observe(loc)
            pf.observe(loc)
            pf.fill(loc)
        pf.observe((0, 1, 6))  # bank (0, 1) streams row 6 again
        pf.observe((0, 1, 7))  # ... and breaks to row 7
        assert pf._credits == {(0, 2, 5): 1}
        assert pf.stats.evicted == 2 and pf._credit_total == 1
        pf.observe((0, 2, 9))
        assert pf._credits == {} and pf.stats.evicted == 3

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            StreamPrefetcher(degree=0)

    def test_accuracy_stat(self):
        pf = StreamPrefetcher(degree=2)
        pf.observe(LOC)
        pf.observe(LOC)
        pf.fill(LOC)
        pf.consume(LOC)
        assert pf.stats.accuracy == pytest.approx(0.5)


class TestPrefetchingSystem:
    def _run(self, degree, benchmark="libquantum"):
        cfg = SimConfig(
            run_cycles=150_000, prefetch_degree=degree, phase_mean_cycles=0
        )
        workload = Workload(name="w", benchmark_names=(benchmark,))
        system = System(workload, make_scheduler("frfcfs"), cfg, seed=0)
        return system, system.run()

    def test_prefetching_accelerates_latency_bound_streams(self):
        """h264ref (single outstanding miss, high locality) is the
        classic stream-prefetch winner."""
        _, without = self._run(0, benchmark="h264ref")
        _, with_pf = self._run(4, benchmark="h264ref")
        assert with_pf.threads[0].ipc > 1.15 * without.threads[0].ipc

    def test_bandwidth_bound_stream_unchanged(self):
        """libquantum is already bus-limited: prefetching moves the
        same traffic without changing throughput."""
        _, without = self._run(0)
        _, with_pf = self._run(4)
        assert with_pf.threads[0].ipc == pytest.approx(
            without.threads[0].ipc, rel=0.08
        )

    def test_prefetcher_is_useful_for_streams(self):
        system, _ = self._run(4, benchmark="h264ref")
        stats = system.prefetchers[0].stats
        assert stats.issued > 50
        assert stats.accuracy > 0.6

    def test_inaccurate_thread_throttles(self):
        """mcf's random rows defeat the stream detector; feedback-
        directed throttling shuts its prefetcher down harmlessly."""
        system, with_pf = self._run(4, benchmark="mcf")
        _, without = self._run(0, benchmark="mcf")
        assert system.prefetchers[0].throttled
        assert with_pf.threads[0].ipc == pytest.approx(
            without.threads[0].ipc, rel=0.05
        )

    def test_disabled_by_default(self):
        cfg = SimConfig(run_cycles=30_000)
        workload = Workload(name="w", benchmark_names=("libquantum",))
        system = System(workload, make_scheduler("frfcfs"), cfg, seed=0)
        system.run()
        assert system.prefetchers is None

    def test_all_schedulers_run_with_prefetching(self):
        cfg = SimConfig(run_cycles=60_000, prefetch_degree=2)
        workload = Workload(
            name="w", benchmark_names=("libquantum", "mcf", "povray")
        )
        for sched in ("frfcfs", "tcm", "parbs", "atlas", "stfm"):
            result = System(workload, make_scheduler(sched), cfg, seed=0).run()
            assert all(t.ipc > 0 for t in result.threads)

    def test_demand_first_in_select(self):
        from repro.dram.channel import Channel
        from repro.dram.request import MemoryRequest

        scheduler = make_scheduler("frfcfs")
        channel = Channel(0, SimConfig())
        prefetch = MemoryRequest(
            thread_id=0, channel_id=0, bank_id=0, row=1, arrival=0,
            is_prefetch=True,
        )
        demand = MemoryRequest(
            thread_id=1, channel_id=0, bank_id=0, row=2, arrival=50
        )
        channel.enqueue(prefetch)
        channel.enqueue(demand)
        channel.banks[0].open_row = 1   # prefetch would be the row hit
        assert scheduler.select(channel, 0, now=100) is demand

    def test_long_run_keeps_no_empty_waiter_lists(self, monkeypatch):
        """A fill that wakes a location's last merged miss drops the
        location from the waiter map, so the map does not grow with run
        length.  The result is unchanged against a fill that keeps the
        emptied list: only a list's length and truthiness are read."""
        from repro.workloads.mixes import make_intensity_workload
        from tests.conftest import dispatch_loop

        cfg = SimConfig(run_cycles=200_000, num_threads=8,
                        model_writes=True, prefetch_degree=2)

        def run():
            workload = make_intensity_workload(1.0, num_threads=8, seed=0)
            system = System(workload, make_scheduler("tcm"), cfg, seed=0)
            return system, system.run()

        def waiter_lists(system):
            return [waiting for prefetcher in system.prefetchers
                    for waiting in prefetcher._waiters.values()]

        fused_sys, fused = run()
        with dispatch_loop():
            dispatch_sys, dispatch = run()
        assert fused == dispatch
        for system in (fused_sys, dispatch_sys):
            assert all(waiter_lists(system))

        def fill_keeping_empty_lists(self, location):
            if self._inflight.get(location, 0) > 0:
                self._inflight[location] -= 1
                if self._inflight[location] == 0:
                    del self._inflight[location]
            waiters = self._waiters.get(location)
            if waiters:
                return [waiters.pop(0)]
            if self._credit_total >= 32:
                self.stats.evicted += 1
                return []
            self._credits[location] = self._credits.get(location, 0) + 1
            self._credit_total += 1
            return []

        monkeypatch.setattr(StreamPrefetcher, "fill",
                            fill_keeping_empty_lists)
        with dispatch_loop():
            leaky_sys, leaky = run()
        assert leaky == fused
        emptied = [w for w in waiter_lists(leaky_sys) if not w]
        assert len(emptied) > 100
