"""Per-grant trace events as rows.

The per-grant sites hand the tracer rows (``ROW_FIELDS``), and each
sink decides what a row becomes: the base ``Sink`` writes the dicts it
stands for, the null sink drops it and the in-memory sink keeps ints.
Whatever a sink keeps, every reader of dicts sees the same events.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from repro.config import DramTimings, SimConfig
from repro.explain import attach_explain
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    PerfettoSink,
    SchemaError,
    Sink,
    Telemetry,
    Tracer,
    events_to_perfetto,
    jsonl_to_perfetto,
    write_perfetto,
)
from repro.telemetry.schema import row_events
from repro.telemetry.sinks import NullSink
from repro.workloads import make_intensity_workload
from tests.obs.test_span_storage import _reachable_tracked

MIX = make_intensity_workload(0.75, num_threads=4, seed=3)

#: writes and prefetching run on the fused loop; detailed timings take
#: the dispatch loop
CONFIGS = {
    "fused_rw": SimConfig(run_cycles=40_000, num_threads=4,
                          quantum_cycles=10_000, model_writes=True,
                          prefetch_degree=2),
    "dispatch": SimConfig(run_cycles=40_000, num_threads=4,
                          quantum_cycles=10_000,
                          timings=DramTimings(detailed=True)),
}


class RecordingSink(Sink):
    """A sink written for dicts only: it sees what the base class
    makes of each row."""

    def __init__(self) -> None:
        self.events = []

    def write(self, event: dict) -> None:
        self.events.append(event)


def traced_run(scheduler: str, config: SimConfig, *sinks,
               starvation_threshold: int = 400):
    tracer = Tracer(list(sinks))
    system = System(MIX, make_scheduler(scheduler), config, seed=5,
                    telemetry=Telemetry(tracer=tracer))
    # two shadows, each a policy other than the primary
    shadows = ("atlas", "tcm" if scheduler == "frfcfs" else "frfcfs")
    attach_explain(system, shadows=shadows,
                   starvation_threshold=starvation_threshold)
    system.run()
    return tracer


def _typed(events) -> list:
    """Each event as its (key, type, value) triples, in key order."""
    return [[(k, type(v), v) for k, v in event.items()] for event in events]


class TestRowEvents:
    def test_grant_row_is_todays_pair(self):
        events = row_events("grant", (10, 0, 1, 3, 2, 7, "hit", 14))
        assert _typed(events) == _typed([
            {"ev": "sched_decision", "ts": 10, "ch": 0, "bank": 1,
             "tid": 3, "queued": 2, "row_hit": True},
            {"ev": "dram_cmd", "ts": 10, "ch": 0, "bank": 1, "row": 7,
             "tid": 3, "kind": "hit", "start": 10, "end": 14},
        ])
        assert row_events("grant", (10, 0, 1, 3, 2, 7, "conflict", 30)
                          )[0]["row_hit"] is False

    def test_explain_row_is_todays_event(self):
        row = (5, 1, 2, 0, 3, "priority", 1, "rank", 2.0, ["frfcfs"])
        assert _typed(row_events("explain", row)) == _typed([
            {"ev": "explain", "ts": 5, "ch": 1, "bank": 2, "tid": 0,
             "queued": 3, "tie": "priority", "tied": 1,
             "component": "rank", "delta": 2.0, "disagree": ["frfcfs"]},
        ])


class TestValidation:
    @pytest.mark.parametrize("kind,row", [
        ("grant", (10, 0, 1, 3, 2, 7, "hit")),             # short
        ("grant", (10, "zero", 1, 3, 2, 7, "hit", 14)),    # mistyped
        ("grant", (10, 0, 1, 3, 2, 7, "open", 14)),        # bad kind
        ("grant", (10, 0, 1, 3, 2, 7, "hit", 9)),          # end < start
        ("explain", (5, 1, 2, 0, 3, "priority", 1, None, 2.0, [])),
        ("bogus", (1,)),
    ])
    def test_malformed_row_raises(self, kind, row):
        tracer = Tracer([MemorySink()], validate=True)
        with pytest.raises(SchemaError):
            tracer.write_row(kind, row)
        assert tracer.events_emitted == 0

    def test_rows_count_the_events_they_stand_for(self):
        tracer = Tracer([NullSink()], validate=True)
        tracer.write_row("grant", (10, 0, 1, 3, 2, 7, "hit", 14))
        tracer.write_row("explain", (10, 0, 1, 3, 2, "only-candidate", 1,
                                     "", 0.0, []))
        assert tracer.events_emitted == 3


class TestRoundTrip:
    @pytest.mark.parametrize("scheduler", ["tcm", "frfcfs"])
    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_memory_sink_gives_the_dicts_a_plain_sink_sees(
            self, scheduler, mode, fused_advances):
        memory, plain = MemorySink(), RecordingSink()
        tracer = traced_run(scheduler, CONFIGS[mode], memory, plain)
        assert bool(fused_advances) == (mode == "fused_rw")
        events = memory.events
        assert _typed(events) == _typed(plain.events)
        assert len(events) == tracer.events_emitted
        kinds = {event["ev"] for event in events}
        assert {"sched_decision", "dram_cmd", "explain", "starvation",
                "quantum", "run_end"} <= kinds
        explains = [e for e in events if e["ev"] == "explain"]
        assert any(e["disagree"] for e in explains)
        assert any(e["component"] == "" for e in explains)
        if mode == "fused_rw":
            assert any(e.get("write") for e in events)

    def test_events_are_built_once_and_extended(self):
        sink = MemorySink()
        sink.write_row("grant", (10, 0, 1, 3, 2, 7, "hit", 14))
        first = sink.events
        assert len(first) == 2 and sink.events is first
        head = first[0]
        sink.write({"ev": "batch", "ts": 11, "marked": 4})
        sink.write_row("explain", (12, 0, 1, 3, 1, "only-candidate", 1,
                                   "", 0.0, []))
        assert sink.events is first and first[0] is head
        assert [e["ev"] for e in first] == [
            "sched_decision", "dram_cmd", "batch", "explain"]


class TestStorage:
    """FR-FCFS with no quantum boundary, no epoch sampler and a
    starvation threshold nothing reaches emits no event but rows
    between the two run lengths, so only rows could make the sink
    grow."""

    def tracked_after(self, cycles: int, sink) -> tuple:
        config = SimConfig(run_cycles=cycles, num_threads=4,
                           quantum_cycles=1_000_000)
        tracer = traced_run("frfcfs", config, sink,
                            starvation_threshold=10 ** 9)
        gc.collect()
        return tracer.events_emitted, _reachable_tracked(sink)

    def test_memory_sink_objects_do_not_grow_with_grants(self):
        short_events, short = self.tracked_after(30_000, MemorySink())
        long_events, long = self.tracked_after(120_000, MemorySink())
        assert long_events > 3 * short_events
        assert long == short

    def test_row_sinks_never_get_per_grant_dicts(self, monkeypatch):
        written = []
        for cls in (MemorySink, NullSink):
            monkeypatch.setattr(
                cls, "write", lambda self, event: written.append(event))
        for config in CONFIGS.values():
            config = dataclasses.replace(config, model_writes=False,
                                         prefetch_degree=0)
            traced_run("tcm", config, MemorySink(), NullSink())
        assert written
        assert not {e["ev"] for e in written} & {
            "sched_decision", "dram_cmd", "explain"}


class TestPerfettoStreams:
    def test_sink_file_is_the_converted_run(self, tmp_path):
        memory = MemorySink()
        sink = PerfettoSink(tmp_path / "run.json")
        jsonl = JsonlSink(tmp_path / "run.jsonl")
        traced_run("tcm", CONFIGS["fused_rw"], memory, sink, jsonl)
        sink.close()
        jsonl.close()
        written = (tmp_path / "run.json").read_bytes()
        write_perfetto(events_to_perfetto(memory.events)["traceEvents"],
                       tmp_path / "ref.json")
        assert written == (tmp_path / "ref.json").read_bytes()
        jsonl_to_perfetto(tmp_path / "run.jsonl", tmp_path / "conv.json")
        assert written == (tmp_path / "conv.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "conv.json", "ref.json", "run.json", "run.jsonl"]

    def test_sink_holds_no_events(self, tmp_path):
        def held(cycles: int) -> tuple:
            config = SimConfig(run_cycles=cycles, num_threads=4)
            sink = PerfettoSink(tmp_path / f"{cycles}.json")
            tracer = traced_run("tcm", config, sink)
            gc.collect()
            count = _reachable_tracked(sink)
            sink.close()
            return tracer.events_emitted, count

        short_events, short = held(30_000)
        long_events, long = held(120_000)
        assert long_events > 3 * short_events
        assert long == short

    def test_interrupted_observed_run_leaves_whole_files(self, tmp_path):
        from repro.obs.aggregate import observe_run

        class Interrupt(Sink):
            """Interrupts the run at its 500th event."""

            count = 0

            def write(self, event: dict) -> None:
                self.count += 1
                if self.count == 500:
                    raise KeyboardInterrupt

        config = SimConfig(run_cycles=40_000, num_threads=4)
        sinks = (JsonlSink(tmp_path / "run.jsonl"),
                 PerfettoSink(tmp_path / "run.json"), Interrupt())
        with pytest.raises(KeyboardInterrupt):
            observe_run(MIX, "tcm", config, with_alone=False, sinks=sinks)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.json", "run.jsonl"]
        jsonl_to_perfetto(tmp_path / "run.jsonl", tmp_path / "conv.json")
        assert ((tmp_path / "run.json").read_bytes()
                == (tmp_path / "conv.json").read_bytes())

    @pytest.mark.parametrize("records", [
        [],
        [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
          "args": {"name": "DRAM"}},
         {"ph": "C", "pid": 2, "tid": 0, "ts": 3, "name": "x é",
          "args": {"v": 0.1, "nan": float("nan"), 4: [True, None]}}],
    ])
    def test_writer_bytes_are_json_dump(self, tmp_path, records):
        path = write_perfetto(iter(records), tmp_path / "t.json")
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as f:
            json.dump({"traceEvents": records, "displayTimeUnit": "ms"}, f)
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()
