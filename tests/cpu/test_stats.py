"""Tests for repro.cpu.stats."""

import pytest

from repro.cpu.stats import ThreadStats


class TestRetire:
    def test_retire_accumulates(self):
        stats = ThreadStats()
        stats.retire(100, 5)
        stats.retire(50, 2)
        assert stats.instructions == 150
        assert stats.misses == 7
        assert stats.episodes == 2

    def test_quantum_counters_mirror(self):
        stats = ThreadStats()
        stats.retire(100, 5)
        assert stats.quantum_instructions == 100
        assert stats.quantum_misses == 5


class TestFold:
    """``instructions``, ``misses`` and ``episodes`` fold the quantum in
    at each ``reset_quantum``; they read what a plain accumulation of
    every ``retire`` does, mid-quantum and across boundaries."""

    @pytest.mark.parametrize("pattern", [(0,), (1,), (5,), (0, 1, 5, 2)])
    def test_fold_matches_plain_accumulation(self, pattern):
        stats = ThreadStats()
        instructions = misses = episodes = 0
        for quantum in range(4):
            for step, retired_misses in enumerate(pattern * 2):
                retired = 100 * quantum + step
                stats.retire(retired, retired_misses)
                instructions += retired
                misses += retired_misses
                episodes += 1
                assert (stats.instructions, stats.misses,
                        stats.episodes) == (instructions, misses, episodes)
            stats.reset_quantum()
            assert (stats.instructions, stats.misses,
                    stats.episodes) == (instructions, misses, episodes)
            assert (stats.quantum_instructions, stats.quantum_misses) == (
                0, 0)


class TestMPKI:
    def test_quantum_mpki(self):
        stats = ThreadStats()
        stats.retire(1000, 20)
        assert stats.quantum_mpki() == pytest.approx(20.0)

    def test_quantum_mpki_zero_instructions(self):
        assert ThreadStats().quantum_mpki() == 0.0

    def test_lifetime_mpki(self):
        stats = ThreadStats()
        stats.retire(2000, 10)
        assert stats.lifetime_mpki() == pytest.approx(5.0)

    def test_lifetime_mpki_zero(self):
        assert ThreadStats().lifetime_mpki() == 0.0


class TestQuantumReset:
    def test_reset_clears_quantum_only(self):
        stats = ThreadStats()
        stats.retire(1000, 20)
        stats.reset_quantum()
        assert stats.quantum_instructions == 0
        assert stats.quantum_misses == 0
        assert stats.instructions == 1000
        assert stats.misses == 20

    def test_mpki_after_reset_counts_new_quantum(self):
        stats = ThreadStats()
        stats.retire(1000, 20)
        stats.reset_quantum()
        stats.retire(1000, 40)
        assert stats.quantum_mpki() == pytest.approx(40.0)
        assert stats.lifetime_mpki() == pytest.approx(30.0)


class TestIPC:
    def test_ipc(self):
        stats = ThreadStats()
        stats.retire(3000, 1)
        assert stats.ipc(1000) == pytest.approx(3.0)

    def test_ipc_zero_cycles(self):
        assert ThreadStats().ipc(0) == 0.0
