"""Tests for STFM — interference accounting and victim selection."""

import pytest

from repro.config import STFMParams, SimConfig
from repro.dram.request import MemoryRequest
from repro.schedulers.stfm import STFMScheduler
from repro.sim import System
from repro.workloads.mixes import Workload


def req(thread=0, arrival=0, row=1, bank=0):
    return MemoryRequest(
        thread_id=thread, channel_id=0, bank_id=bank, row=row, arrival=arrival
    )


class FakeSystem:
    class workload:
        num_threads = 3
        weights = None
    config = SimConfig()
    seed = 0
    def schedule_timer(self, time, key):
        pass


@pytest.fixture
def stfm():
    scheduler = STFMScheduler()
    scheduler.attach(FakeSystem())
    return scheduler


class TestInterferenceAccounting:
    def test_attach_sizes_private_books(self, stfm):
        # STFM keeps its own books; attach sizes them per thread
        assert stfm._t_interference == [0, 0, 0]
        assert stfm._t_shared == [0, 0, 0]

    def test_waiting_other_threads_accumulate(self, stfm):
        serviced = req(thread=0)
        waiting = [req(thread=1), req(thread=2)]
        stfm.on_request_scheduled(serviced, waiting, busy_cycles=200, now=0)
        assert stfm._t_interference[1] == 200
        assert stfm._t_interference[2] == 200
        assert stfm._t_interference[0] == 0

    def test_own_thread_not_charged(self, stfm):
        serviced = req(thread=0)
        waiting = [req(thread=0, row=2)]
        stfm.on_request_scheduled(serviced, waiting, busy_cycles=200, now=0)
        assert stfm._t_interference[0] == 0

    def test_shared_time_accumulates_on_completion(self, stfm):
        r = req(thread=1, arrival=100)
        stfm.on_request_complete(r, now=400)
        assert stfm._t_shared[1] == 300


class TestSlowdownEstimation:
    def test_no_data_means_no_slowdown(self, stfm):
        assert stfm.slowdown_estimate(0) == 1.0

    def test_interference_raises_estimate(self, stfm):
        stfm._t_shared[1] = 10_000
        stfm._t_interference[1] = 5_000
        assert stfm.slowdown_estimate(1) == pytest.approx(2.0)

    def test_victim_selected_above_threshold(self, stfm):
        stfm._t_shared = [10_000, 10_000, 10_000]
        stfm._t_interference = [0, 8_000, 1_000]
        stfm._reevaluate()
        assert stfm._victim == 1

    def test_no_victim_when_fair(self, stfm):
        stfm._t_shared = [10_000, 10_000, 10_000]
        stfm._t_interference = [500, 600, 550]
        stfm._reevaluate()
        assert stfm._victim is None

    def test_victim_priority_boost(self, stfm):
        stfm._victim = 1
        victim_req = req(thread=1, arrival=100)
        other_req = req(thread=0, arrival=0)
        assert stfm.priority(victim_req, False, 200) > stfm.priority(
            other_req, True, 200
        )

    def test_fr_fcfs_fallback_without_victim(self, stfm):
        stfm._victim = None
        hit = req(thread=0, arrival=100)
        miss = req(thread=1, arrival=0, row=2)
        assert stfm.priority(hit, True, 200) > stfm.priority(miss, False, 200)


class TestIntegration:
    def test_stfm_improves_fairness_over_frfcfs(self):
        """On a heavy mix, STFM should reduce the worst slowdown."""
        from repro.experiments import alone_ipcs, run_shared
        from repro.workloads import make_intensity_workload

        cfg = SimConfig(run_cycles=250_000)
        workload = make_intensity_workload(1.0, num_threads=16, seed=5)
        alones = alone_ipcs(workload, cfg, seed=5)
        worst = {}
        for sched in ("frfcfs", "stfm"):
            result = run_shared(workload, sched, cfg, seed=5)
            worst[sched] = max(
                a / s if s > 0 else float("inf")
                for a, s in zip(alones, result.ipcs)
            )
        assert worst["stfm"] < worst["frfcfs"]
