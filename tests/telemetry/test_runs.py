"""Whole-run telemetry: the summary a run leaves behind."""

from repro.config import SimConfig
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.telemetry import Telemetry
from repro.workloads.mixes import make_intensity_workload

CFG = SimConfig(num_threads=4, run_cycles=20_000, quantum_cycles=10_000)


def build(telemetry=None, seed=0):
    workload = make_intensity_workload(0.5, num_threads=4, seed=3)
    return System(workload, make_scheduler("tcm"), CFG, seed=seed,
                  telemetry=telemetry)


class TestTelemetrySummary:
    def test_summary_fields(self):
        telemetry = Telemetry.in_memory()
        result = build(telemetry).run()
        summary = telemetry.summary()
        assert summary["events"] > 0
        assert summary["epochs"] == 2
        assert summary["requests"] == result.total_requests > 0
        assert type(summary["requests"]) is int
        accesses = result.row_hits + result.row_conflicts + result.row_closed
        assert summary["row_hit_rate"] == result.row_hits / accesses
        assert 0.0 <= summary["row_hit_rate"] <= 1.0
        assert summary["quanta"] == result.quantum_count == 2
