"""Campaign-level telemetry: traced points, determinism, summary record."""

import os

from repro.campaign import (
    KIND_SUMMARY,
    CampaignPlan,
    CampaignPoint,
    CampaignStore,
    execute_plan,
)
from repro.config import SimConfig
from repro.telemetry import validate_jsonl
from repro.workloads.mixes import make_intensity_workload

CFG = SimConfig(num_threads=4, run_cycles=20_000, quantum_cycles=10_000)


def tiny_plan(name="tele"):
    points = tuple(
        CampaignPoint(
            workload=make_intensity_workload(0.5, 4, seed=s),
            scheduler=sched, config=CFG, seed=0,
        )
        for s in (1, 2)
        for sched in ("tcm", "frfcfs")
    )
    return CampaignPlan(name=name, points=points)


class TestTracedCampaign:
    def test_trace_files_and_payload_digest(self, tmp_path):
        trace_dir = tmp_path / "traces"
        report = execute_plan(tiny_plan(), workers=1,
                              trace_dir=str(trace_dir))
        assert all(r.ok for r in report.results)
        files = sorted(os.listdir(trace_dir))
        assert len(files) == len({r.key for r in report.results})
        for r in report.results:
            digest = r.payload["telemetry"]
            assert digest["events"] > 0
            assert digest["requests"] == r.payload["summary"]["requests"] > 0
            assert digest["trace"].endswith(f"{r.key}.jsonl")
            assert validate_jsonl(digest["trace"]) == digest["events"]

    def test_tracing_keeps_metrics_identical(self, tmp_path):
        plain = execute_plan(tiny_plan(), workers=1)
        traced = execute_plan(tiny_plan(), workers=1,
                              trace_dir=str(tmp_path / "t"))
        assert ([r.metrics for r in plain.results]
                == [r.metrics for r in traced.results])

    def test_trace_determinism_across_worker_counts(self, tmp_path):
        """workers=1 and workers=2 write byte-identical trace files."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = execute_plan(tiny_plan(), workers=1,
                              trace_dir=str(serial_dir))
        parallel = execute_plan(tiny_plan(), workers=2,
                                trace_dir=str(parallel_dir))
        assert ([r.metrics for r in serial.results]
                == [r.metrics for r in parallel.results])
        for name in os.listdir(serial_dir):
            a = (serial_dir / name).read_bytes()
            b = (parallel_dir / name).read_bytes()
            assert a == b, f"trace {name} differs between worker counts"


class TestSummaryRecord:
    def test_store_gains_summary(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_plan(tiny_plan("summed"), store=str(store_dir), workers=1,
                     trace_dir=str(tmp_path / "tr"))
        with CampaignStore(store_dir) as store:
            record = store.get("summary:summed")
            assert record["kind"] == KIND_SUMMARY
            progress = record["payload"]["progress"]
            assert progress["completed"] == 4
            assert progress["failed"] == 0
            assert progress["failure_rate"] == 0.0
            agg = record["payload"]["telemetry"]
            assert agg["traced_points"] == 4
            assert agg["events"] > 0

    def test_summary_written_without_tracing(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_plan(tiny_plan("plain"), store=str(store_dir), workers=1)
        with CampaignStore(store_dir) as store:
            record = store.get("summary:plain")
            assert record["payload"]["telemetry"] == {}
            assert record["payload"]["progress"]["completed"] == 4
