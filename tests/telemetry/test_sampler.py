"""Epoch sampler: alignment, deltas, and non-perturbation."""

import pytest

from repro.config import SimConfig
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.telemetry import Telemetry
from repro.workloads.mixes import make_intensity_workload

CFG = SimConfig(num_threads=4, run_cycles=40_000, quantum_cycles=10_000)


def traced_run(scheduler="tcm", epoch_cycles=None, config=CFG):
    telemetry = Telemetry.in_memory(epoch_cycles=epoch_cycles)
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    system = System(workload, make_scheduler(scheduler), config, seed=0,
                    telemetry=telemetry)
    result = system.run()
    return telemetry, result, system


class TestEpochAlignment:
    def test_default_period_is_quantum(self):
        telemetry, _, _ = traced_run()
        assert telemetry.sampler.cycles() == [10_000, 20_000, 30_000, 40_000]

    def test_explicit_period(self):
        telemetry, _, _ = traced_run(epoch_cycles=8_000)
        assert telemetry.sampler.cycles() == [8_000, 16_000, 24_000, 32_000,
                                              40_000]

    def test_quantum_aligned_sample_sees_fresh_clustering(self):
        """A sample at a quantum boundary observes post-quantum state.

        Sample events sort after every ordinary event at the same
        cycle, so the first sample already carries the clustering the
        quantum at that cycle just computed.
        """
        telemetry, _, system = traced_run()
        first = telemetry.samples[0]
        assert first.cycle == system.config.quantum_cycles
        clusters = {row["cluster"] for row in first.threads}
        assert clusters <= {"latency", "bandwidth"}
        assert clusters  # annotated, not empty

    def test_epoch_index_matches_quantum_events(self):
        telemetry, _, _ = traced_run()
        quanta = [e for e in telemetry.events if e["ev"] == "quantum"]
        epochs = [e for e in telemetry.events if e["ev"] == "epoch"]
        assert len(quanta) == len(epochs) == len(telemetry.samples)
        for q, e in zip(quanta, epochs):
            assert q["ts"] == e["ts"]


class TestDeltas:
    def test_miss_deltas_sum_to_lifetime(self):
        telemetry, result, system = traced_run()
        for tid in range(4):
            per_epoch = telemetry.sampler.series(tid, "misses")
            assert sum(per_epoch) == system.threads[tid].stats.misses

    def test_instruction_deltas_bounded_by_lifetime(self):
        """Instruction deltas never exceed the final count.

        They may undercount it: ``ThreadModel.finalize`` retires
        trailing compute after the last sample fires, so the tail is
        credited outside any epoch.
        """
        telemetry, result, system = traced_run()
        for tid in range(4):
            per_epoch = telemetry.sampler.series(tid, "instructions")
            assert all(d >= 0 for d in per_epoch)
            assert 0 < sum(per_epoch) <= system.threads[tid].stats.instructions

    def test_rbl_blp_bounded(self):
        telemetry, _, _ = traced_run()
        for sample in telemetry.samples:
            for row in sample.threads:
                assert 0.0 <= row["rbl"] <= 1.0
                assert row["blp"] >= 0.0

    def test_bus_busy_bounded(self):
        telemetry, _, _ = traced_run()
        for sample in telemetry.samples:
            assert all(0.0 <= b <= 1.0 for b in sample.bus_busy)

    def test_rank_annotation_for_tcm(self):
        telemetry, _, _ = traced_run("tcm")
        assert all("rank" in row for row in telemetry.samples[-1].threads)

    def test_rank_annotation_for_atlas(self):
        """ATLAS annotates ranks once its own quantum has elapsed."""
        from repro.config import ATLASParams
        from repro.schedulers.atlas import ATLASScheduler

        telemetry = Telemetry.in_memory()
        workload = make_intensity_workload(0.75, num_threads=4, seed=3)
        scheduler = ATLASScheduler(ATLASParams(quantum_cycles=10_000))
        System(workload, scheduler, CFG, seed=0, telemetry=telemetry).run()
        assert all("rank" in row for row in telemetry.samples[-1].threads)


class TestNonPerturbation:
    @pytest.mark.parametrize("scheduler", ["tcm", "atlas", "parbs", "stfm"])
    def test_sampling_does_not_change_results(self, scheduler):
        telemetry, traced, _ = traced_run(scheduler)
        workload = make_intensity_workload(0.75, num_threads=4, seed=3)
        untraced = System(workload, make_scheduler(scheduler), CFG,
                          seed=0).run()
        assert traced.total_requests == untraced.total_requests
        assert traced.ipcs == untraced.ipcs
        assert telemetry.samples  # it really sampled
