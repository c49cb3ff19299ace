"""Combined-feature integration: every opt-in substrate at once.

Writes, detailed command-level timing, prefetching and phases are all
independent switches; this matrix makes sure any combination runs under
any scheduler and preserves the core invariants.
"""

import pytest

from repro.config import DramTimings, SimConfig
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.workloads.mixes import Workload


def full_feature_config(**overrides):
    base = SimConfig(
        run_cycles=60_000,
        model_writes=True,
        prefetch_degree=2,
        timings=DramTimings(detailed=True),
    )
    return base.with_(**overrides) if overrides else base


def workload():
    return Workload(
        name="w",
        benchmark_names=("mcf", "libquantum", "h264ref", "povray", "lbm"),
    )


class TestFeatureMatrix:
    @pytest.mark.parametrize(
        "sched", ["frfcfs", "stfm", "parbs", "atlas", "tcm", "fqm"]
    )
    def test_all_features_all_schedulers(self, sched):
        system = System(
            workload(), make_scheduler(sched), full_feature_config(), seed=1
        )
        result = system.run()
        assert all(t.ipc > 0 for t in result.threads)
        assert result.total_requests > 100
        # writes flowed
        assert sum(ch.serviced_writes for ch in system.channels) > 0
        # refreshes were taken (detailed mode)
        assert sum(ch.refreshes_performed for ch in system.channels) > 0

    def test_deterministic_with_all_features(self):
        cfg = full_feature_config()
        a = System(workload(), make_scheduler("tcm"), cfg, seed=3).run()
        b = System(workload(), make_scheduler("tcm"), cfg, seed=3).run()
        assert a.ipcs == b.ipcs

    def test_closed_page_with_writes_and_prefetch(self):
        cfg = full_feature_config(
            timings=DramTimings(detailed=True, page_policy="closed")
        )
        result = System(workload(), make_scheduler("tcm"), cfg, seed=0).run()
        assert result.row_hits == 0
        assert all(t.ipc > 0 for t in result.threads)

    def test_trace_recording_with_all_features(self, tmp_path):
        from repro.trace import TraceRecorder

        recorder = TraceRecorder()
        System(
            workload(), make_scheduler("frfcfs"), full_feature_config(),
            seed=0, observers=[recorder],
        ).run()
        paths = recorder.save_all(tmp_path)
        # only demand misses are recorded (no writes, no prefetches)
        assert len(paths) == 5
        total_recorded = sum(len(e) for e in recorder.events.values())
        assert total_recorded > 100

    def test_prefetch_buffer_hits_do_not_reach_dram(self):
        cfg = full_feature_config(
            model_writes=False, timings=DramTimings()
        )
        system = System(
            Workload(name="s", benchmark_names=("h264ref",)),
            make_scheduler("frfcfs"), cfg, seed=0,
        )
        result = system.run()
        useful = system.prefetchers[0].stats.useful
        issued_demand = system.threads[0].issued
        # DRAM saw fewer demand requests than the thread issued misses
        assert result.total_requests < issued_demand + useful
