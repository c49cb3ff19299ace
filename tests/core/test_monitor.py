"""Tests for repro.core.monitor — shadow RBL, BLP and bandwidth tracking."""

import pytest

from repro.config import SimConfig
from repro.core.monitor import BehaviorMonitor, QuantumSnapshot, ThreadMetrics
from repro.dram.request import MemoryRequest
from repro.schedulers.registry import make_scheduler
from repro.sim.fused import fusable
from repro.sim.observer import Observer
from repro.sim.system import System
from repro.workloads.mixes import make_intensity_workload


CFG = SimConfig()


def req(thread=0, channel=0, bank=0, row=1, arrival=0):
    return MemoryRequest(
        thread_id=thread, channel_id=channel, bank_id=bank, row=row,
        arrival=arrival,
    )


@pytest.fixture
def monitor():
    return BehaviorMonitor(CFG, num_threads=2)


class TestShadowRowBuffer:
    def test_first_access_is_miss(self, monitor):
        monitor.on_request_arrival(req(row=5), now=0)
        assert monitor.shadow_hits[0][0] == 0
        assert monitor.shadow_accesses[0][0] == 1

    def test_repeat_row_is_hit(self, monitor):
        monitor.on_request_arrival(req(row=5), now=0)
        monitor.on_request_arrival(req(row=5, arrival=1), now=1)
        assert monitor.shadow_hits[0][0] == 1

    def test_shadow_is_per_thread(self, monitor):
        """Another thread's access does not disturb a thread's shadow
        row — that is the whole point of the shadow index."""
        monitor.on_request_arrival(req(thread=0, row=5), now=0)
        monitor.on_request_arrival(req(thread=1, row=9, arrival=1), now=1)
        monitor.on_request_arrival(req(thread=0, row=5, arrival=2), now=2)
        assert monitor.shadow_hits[0][0] == 1  # thread 0 still hits

    def test_shadow_is_per_bank(self, monitor):
        monitor.on_request_arrival(req(row=5, bank=0), now=0)
        monitor.on_request_arrival(req(row=5, bank=1, arrival=1), now=1)
        assert monitor.shadow_hits[0][0] == 0

    def test_row_change_is_miss(self, monitor):
        monitor.on_request_arrival(req(row=5), now=0)
        monitor.on_request_arrival(req(row=6, arrival=1), now=1)
        assert monitor.shadow_hits[0][0] == 0

    def test_lifetime_rbl(self, monitor):
        monitor.on_request_arrival(req(row=5), now=0)
        monitor.on_request_arrival(req(row=5, arrival=1), now=1)
        monitor.on_request_arrival(req(row=6, arrival=2), now=2)
        assert monitor.lifetime_rbl(0) == pytest.approx(1 / 3)


class TestBLP:
    def test_single_bank_blp_one(self, monitor):
        r = req()
        monitor.on_request_arrival(r, now=0)
        monitor.on_request_complete(r, now=100)
        assert monitor.lifetime_blp(0) == pytest.approx(1.0)

    def test_two_banks_blp_two(self, monitor):
        r0, r1 = req(bank=0), req(bank=1)
        monitor.on_request_arrival(r0, now=0)
        monitor.on_request_arrival(r1, now=0)
        monitor.on_request_complete(r0, now=100)
        monitor.on_request_complete(r1, now=100)
        assert monitor.lifetime_blp(0) == pytest.approx(2.0)

    def test_staggered_banks_time_weighted(self, monitor):
        r0, r1 = req(bank=0), req(bank=1)
        monitor.on_request_arrival(r0, now=0)     # 1 bank for [0,100)
        monitor.on_request_arrival(r1, now=100)   # 2 banks for [100,200)
        monitor.on_request_complete(r0, now=200)
        monitor.on_request_complete(r1, now=200)
        assert monitor.lifetime_blp(0) == pytest.approx(1.5)

    def test_multiple_requests_same_bank_count_once(self, monitor):
        r0, r1 = req(bank=0), req(bank=0, row=2)
        monitor.on_request_arrival(r0, now=0)
        monitor.on_request_arrival(r1, now=0)
        monitor.on_request_complete(r0, now=50)
        monitor.on_request_complete(r1, now=100)
        assert monitor.lifetime_blp(0) == pytest.approx(1.0)

    def test_idle_time_not_counted(self, monitor):
        r0 = req()
        monitor.on_request_arrival(r0, now=0)
        monitor.on_request_complete(r0, now=100)
        # long idle gap, then another access
        r1 = req(row=2, arrival=10_000)
        monitor.on_request_arrival(r1, now=10_000)
        monitor.on_request_complete(r1, now=10_100)
        assert monitor.lifetime_blp(0) == pytest.approx(1.0)

    def test_banks_distinguished_across_channels(self, monitor):
        r0 = req(channel=0, bank=0)
        r1 = req(channel=1, bank=0)
        monitor.on_request_arrival(r0, now=0)
        monitor.on_request_arrival(r1, now=0)
        monitor.on_request_complete(r0, now=100)
        monitor.on_request_complete(r1, now=100)
        assert monitor.lifetime_blp(0) == pytest.approx(2.0)


class TestBandwidthUsage:
    def test_service_cycles_attributed(self, monitor):
        monitor.on_request_service(req(channel=2), busy_cycles=150)
        assert monitor.service_cycles[2][0] == 150
        assert monitor.lifetime_service_cycles[0] == 150

    def test_service_cycles_summed_across_channels(self, monitor):
        monitor.on_request_service(req(channel=0), busy_cycles=100)
        monitor.on_request_service(req(channel=3), busy_cycles=50)
        metrics = monitor.quantum_metrics([1.0, 0.0], now=1_000)
        assert metrics[0].bw_usage == 150


class TestQuantum:
    def test_quantum_metrics_and_reset(self, monitor):
        r = req(row=5)
        monitor.on_request_arrival(r, now=0)
        monitor.on_request_service(r, busy_cycles=100)
        monitor.on_request_complete(r, now=100)
        metrics = monitor.quantum_metrics([12.5, 0.0], now=1_000)
        assert metrics[0].mpki == 12.5
        assert metrics[0].bw_usage == 100
        monitor.reset_quantum()
        metrics2 = monitor.quantum_metrics([0.0, 0.0], now=2_000)
        assert metrics2[0].bw_usage == 0
        assert metrics2[0].rbl == 0.0

    def test_reset_keeps_lifetime(self, monitor):
        r = req(row=5)
        monitor.on_request_arrival(r, now=0)
        monitor.on_request_service(r, busy_cycles=100)
        monitor.on_request_complete(r, now=100)
        monitor.reset_quantum()
        assert monitor.lifetime_service_cycles[0] == 100

    def test_snapshot_aggregates(self):
        snap = QuantumSnapshot(
            quantum_index=0,
            metrics=(
                ThreadMetrics(1.0, 100, 1.0, 0.5),
                ThreadMetrics(2.0, 200, 2.0, 0.9),
            ),
        )
        assert snap.total_bw_usage == 300
        assert snap.num_threads == 2


class EagerLifetime(Observer):
    """The monitor's whole-run counts, accumulated eagerly from the
    observer hooks at every request: the reference its folded lifetime
    lists must equal."""

    name = "eager"

    def __init__(self, num_threads: int, banks_per_channel: int):
        self.banks_per_channel = banks_per_channel
        self.service_cycles = [0] * num_threads
        self.shadow_hits = [0] * num_threads
        self.shadow_accesses = [0] * num_threads
        self.blp_integral = [0.0] * num_threads
        self.busy_time = [0] * num_threads
        self._shadow = {}  # (channel, thread, bank) -> last row
        self._outstanding = [dict() for _ in range(num_threads)]
        self._last = [0] * num_threads

    def _advance(self, tid, now):
        dt = now - self._last[tid]
        banks = self._outstanding[tid]
        if dt > 0 and banks:
            self.blp_integral[tid] += len(banks) * dt
            self.busy_time[tid] += dt
        self._last[tid] = now

    def _bank(self, request):
        return request.channel_id * self.banks_per_channel + request.bank_id

    def on_arrival(self, request, now):
        if request.is_prefetch:
            return
        tid = request.thread_id
        key = (request.channel_id, tid, request.bank_id)
        self.shadow_accesses[tid] += 1
        self.shadow_hits[tid] += self._shadow.get(key) == request.row
        self._shadow[key] = request.row
        self._advance(tid, now)
        banks = self._outstanding[tid]
        bank = self._bank(request)
        banks[bank] = banks.get(bank, 0) + 1

    def on_grant(self, request, waiting, access, completion, now):
        self.service_cycles[request.thread_id] += access.data_end - now

    def on_complete(self, request, now):
        if request.is_prefetch:
            return
        tid = request.thread_id
        self._advance(tid, now)
        banks = self._outstanding[tid]
        bank = self._bank(request)
        banks[bank] -= 1
        if not banks[bank]:
            del banks[bank]

    def on_quantum(self, snapshot, now):
        # the quantum's metrics bring every thread's BLP up to now
        for tid in range(len(self._last)):
            self._advance(tid, now)


class TestLifetimeFold:
    def test_lifetime_lists_equal_an_eager_accumulation(self):
        """Read mid-quantum and just after each ``reset_quantum`` of a
        short fused-loop run, each lifetime list equals the eager
        reference exactly (the BLP integral too: a float sum of ints)."""
        config = SimConfig(run_cycles=60_000, quantum_cycles=15_000)
        system = System(
            make_intensity_workload(0.75, num_threads=8, seed=0),
            make_scheduler("tcm"), config, seed=0,
        )
        eager = system.attach(
            EagerLifetime(len(system.threads), config.banks_per_channel)
        )
        assert fusable(system)
        system.start_run()
        quantum = config.quantum_cycles
        monitor = system.monitor
        for index in range(4):
            for limit in (index * quantum + quantum // 2,
                          (index + 1) * quantum):
                system.advance(limit)
                assert system.quantum_count == (
                    index + (limit % quantum == 0))
                for name in ("service_cycles", "shadow_hits",
                             "shadow_accesses", "blp_integral",
                             "busy_time"):
                    assert getattr(monitor, "lifetime_" + name) == (
                        getattr(eager, name)), name
                for tid in range(len(system.threads)):
                    busy = eager.busy_time[tid]
                    accesses = eager.shadow_accesses[tid]
                    assert monitor.lifetime_blp(tid) == (
                        eager.blp_integral[tid] / busy if busy else 0.0)
                    assert monitor.lifetime_rbl(tid) == (
                        eager.shadow_hits[tid] / accesses
                        if accesses else 0.0)
        assert all(eager.busy_time) and all(eager.shadow_hits)

    def test_lifetime_lists_are_read_only(self, monitor):
        monitor.on_request_service(req(), busy_cycles=100)
        monitor.lifetime_service_cycles[0] = 0
        assert monitor.lifetime_service_cycles[0] == 100
