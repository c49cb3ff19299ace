"""Telemetry, Perfetto and oracle surfaces of the explain layer."""

import json

import pytest

from repro.config import SimConfig
from repro.explain import attach_explain
from repro.schedulers.registry import make_scheduler
from repro.sim.system import System
from repro.telemetry import Telemetry, events_to_perfetto
from repro.validate import InvariantViolation, checked_run
from repro.validate.oracle import attach_oracle
from repro.workloads import make_intensity_workload

CYCLES = 6_000


def _traced_run(shadows=("frfcfs",), starvation_threshold=200):
    telemetry = Telemetry.in_memory(validate=True)
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    config = SimConfig(run_cycles=CYCLES, num_threads=4,
                       quantum_cycles=2_000)
    system = System(workload, make_scheduler("tcm"), config, seed=1,
                    telemetry=telemetry)
    collector = attach_explain(
        system, shadows=shadows,
        starvation_threshold=starvation_threshold,
    )
    system.run()
    return telemetry, collector


class TestTelemetryEvents:
    def test_explain_events_validate_and_count(self):
        """One schema-valid ``explain`` event per grant (the tracer
        runs with validation on, so a malformed event would raise)."""
        telemetry, collector = _traced_run()
        events = [e for e in telemetry.events if e["ev"] == "explain"]
        assert len(events) == collector.decisions_total
        for event in events[:50]:
            assert event["tie"] in (
                "priority", "queue-order", "only-candidate"
            )
            assert event["queued"] >= 1
            assert isinstance(event["disagree"], list)

    def test_disagree_field_names_shadows(self):
        telemetry, collector = _traced_run()
        shadow = collector.shadows[0]
        flagged = [
            e for e in telemetry.events
            if e["ev"] == "explain" and e["disagree"]
        ]
        assert len(flagged) == collector.decisions_total - shadow.agreed
        assert all(e["disagree"] == [shadow.label] for e in flagged)

    def test_starvation_events_validate(self):
        telemetry, collector = _traced_run()
        events = [e for e in telemetry.events if e["ev"] == "starvation"]
        assert len(events) == len(collector.starvation_events)
        for event, recorded in zip(events, collector.starvation_events):
            assert event["tid"] == recorded["tid"]
            assert event["age"] == recorded["age"]
            assert event["ts"] == recorded["now"]


class TestPerfettoExport:
    def test_explain_and_starvation_convert(self):
        telemetry, collector = _traced_run()
        trace = events_to_perfetto(telemetry.events)["traceEvents"]
        names = [t.get("name", "") for t in trace]
        # per-shadow cumulative disagreement counters
        assert "disagreements shadow:frfcfs" in names
        # disagreement instants on the bank tracks
        assert "disagree" in names
        # starvation instants
        assert any(n.startswith("starvation t") for n in names)
        json.dumps(trace)  # perfetto JSON must serialise

    def test_counter_staircase_is_cumulative(self):
        telemetry, collector = _traced_run()
        trace = events_to_perfetto(telemetry.events)["traceEvents"]
        counts = [
            t["args"]["count"] for t in trace
            if t.get("name") == "disagreements shadow:frfcfs"
        ]
        shadow = collector.shadows[0]
        assert counts == sorted(counts)
        assert counts[-1] == collector.decisions_total - shadow.agreed


class TestOracle:
    def test_checked_run_with_explain_passes(self):
        workload = make_intensity_workload(0.75, num_threads=4, seed=3)
        config = SimConfig(run_cycles=CYCLES, num_threads=4,
                           quantum_cycles=2_000)
        result, report = checked_run(
            workload, "tcm", config=config, seed=1,
            explain=True, shadows=("frfcfs",),
        )
        assert result.total_requests > 0
        assert report.checks["decisions"] > 0

    def test_oracle_catches_a_lost_record(self):
        """Bypassing the collector's decision hook starves the record
        stream; the oracle's per-grant check must notice the grant that
        produced no record."""
        workload = make_intensity_workload(0.75, num_threads=4, seed=3)
        config = SimConfig(run_cycles=CYCLES, num_threads=4)
        system = System(workload, make_scheduler("tcm"), config, seed=1)
        collector = attach_explain(system)
        attach_oracle(system)
        # the run binds the instance's hook: this one silently drops
        # every record while grants keep flowing
        collector.on_decision = lambda *args, **kwargs: None
        with pytest.raises(InvariantViolation, match="decision"):
            system.run()
