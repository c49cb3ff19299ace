"""Tests for repro.dram.bank — row-buffer state machine and timing."""

import pytest

from repro.config import DramTimings
from repro.dram.bank import Bank


@pytest.fixture
def bank():
    return Bank(channel_id=0, bank_id=0, timings=DramTimings())


class TestClassification:
    def test_fresh_bank_is_closed(self, bank):
        assert bank.classify(5) == "closed"

    def test_same_row_is_hit(self, bank):
        bank.begin_access(5, now=0, bus_free_until=0)
        assert bank.classify(5) == "hit"

    def test_different_row_is_conflict(self, bank):
        bank.begin_access(5, now=0, bus_free_until=0)
        assert bank.classify(6) == "conflict"


class TestTiming:
    def test_closed_access_occupancy(self, bank):
        t = bank.timings
        access = bank.begin_access(5, now=0, bus_free_until=0)
        assert access.kind == "closed"
        assert access.data_end == t.closed_occupancy

    def test_hit_access_occupancy(self, bank):
        t = bank.timings
        bank.begin_access(5, now=0, bus_free_until=0)
        start = bank.busy_until
        access = bank.begin_access(5, now=start, bus_free_until=0)
        assert access.is_row_hit
        assert access.data_end - start == t.hit_occupancy

    def test_conflict_access_occupancy(self, bank):
        t = bank.timings
        bank.begin_access(5, now=0, bus_free_until=0)
        start = bank.busy_until
        access = bank.begin_access(9, now=start, bus_free_until=0)
        assert access.kind == "conflict"
        assert access.data_end - start == t.conflict_occupancy

    def test_bus_contention_delays_data_phase(self, bank):
        t = bank.timings
        access = bank.begin_access(5, now=0, bus_free_until=1_000)
        assert access.data_start == 1_000
        assert access.data_end == 1_000 + t.burst
        assert bank.busy_until == access.data_end

    def test_data_start_waits_for_prep(self, bank):
        t = bank.timings
        access = bank.begin_access(5, now=100, bus_free_until=0)
        assert access.data_start == 100 + t.closed_occupancy - t.burst

    def test_busy_bank_rejects_access(self, bank):
        bank.begin_access(5, now=0, bus_free_until=0)
        with pytest.raises(RuntimeError):
            bank.begin_access(5, now=1, bus_free_until=0)

    def test_is_idle_after_busy_until(self, bank):
        bank.begin_access(5, now=0, bus_free_until=0)
        assert not bank.is_idle(bank.busy_until - 1)
        assert bank.is_idle(bank.busy_until)


class TestStats:
    def test_counters_track_access_kinds(self, bank):
        bank.begin_access(5, now=0, bus_free_until=0)        # closed
        bank.begin_access(5, now=10_000, bus_free_until=0)   # hit
        bank.begin_access(7, now=20_000, bus_free_until=0)   # conflict
        assert bank.row_closed == 1
        assert bank.row_hits == 1
        assert bank.row_conflicts == 1

    def test_busy_cycles_accumulate(self, bank):
        bank.begin_access(5, now=0, bus_free_until=0)
        assert bank.busy_cycles == bank.timings.closed_occupancy
