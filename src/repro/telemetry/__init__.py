"""repro.telemetry — cycle-level tracing, epoch sampling and observability.

Two cooperating pieces, both optional and both zero-cost when unused:

* :class:`~repro.telemetry.tracer.Tracer` — schema'd event stream
  (DRAM commands, scheduler decisions, clustering, shuffles, epochs)
  fanned out to sinks: JSONL and Chrome/Perfetto ``trace_event``.
* :class:`~repro.telemetry.sampler.EpochSampler` — periodic per-thread
  MPKI/RBL/BLP/cluster time-series snapshots.

Bundle them with :class:`Telemetry` and hand it to the system::

    from repro.telemetry import Telemetry

    telemetry = Telemetry.tracing("run.jsonl", perfetto_path="run.json")
    system = System(workload, make_scheduler("tcm"), cfg,
                    telemetry=telemetry)
    system.run()
    telemetry.close()        # flushes sinks, writes the Perfetto file
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.log import configure_logging, get_logger
from repro.telemetry.sampler import EpochSample, EpochSampler
from repro.telemetry.schema import (
    EVENT_SCHEMA,
    SchemaError,
    validate_event,
    validate_jsonl,
)
from repro.telemetry.sinks import (
    JsonlSink,
    MemorySink,
    PerfettoSink,
    Sink,
    events_to_perfetto,
    jsonl_to_perfetto,
    write_perfetto,
)
from repro.telemetry.tracer import Tracer, memory_tracer


class Telemetry:
    """A run's observability bundle: tracer + sampler (+ spans).

    Pass one to :class:`repro.sim.System`; the system binds it at
    construction (resetting any state left by a previous run) and
    drives the tracer and sampler from its event loop.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 sampler: Optional[EpochSampler] = None,
                 spans=None) -> None:
        self.tracer = tracer
        self.sampler = sampler
        #: optional repro.obs.spans.SpanCollector; the system attaches it
        #: as an observer at construction
        self.spans = spans
        self.system = None

    # -- construction helpers -------------------------------------------

    @classmethod
    def tracing(cls, jsonl_path=None, perfetto_path=None,
                epoch_cycles: Optional[int] = None,
                validate: bool = False) -> "Telemetry":
        """Telemetry with file sinks and an epoch sampler."""
        sinks = []
        if jsonl_path is not None:
            sinks.append(JsonlSink(jsonl_path))
        if perfetto_path is not None:
            sinks.append(PerfettoSink(perfetto_path))
        return cls(
            tracer=Tracer(sinks, validate=validate),
            sampler=EpochSampler(epoch_cycles),
        )

    @classmethod
    def in_memory(cls, epoch_cycles: Optional[int] = None,
                  validate: bool = True) -> "Telemetry":
        """Telemetry collecting events and samples in memory."""
        return cls(
            tracer=Tracer([MemorySink()], validate=validate),
            sampler=EpochSampler(epoch_cycles),
        )

    @classmethod
    def observing(cls, epoch_cycles: Optional[int] = None,
                  validate: bool = False) -> "Telemetry":
        """In-memory telemetry plus a full request-span collector.

        The bundle :mod:`repro.obs` consumers want: events and epoch
        samples in memory, and every request's lifecycle decomposed
        into cause-tagged wait intervals (``telemetry.spans``).
        """
        from repro.obs.spans import SpanCollector

        return cls(
            tracer=Tracer([MemorySink()], validate=validate),
            sampler=EpochSampler(epoch_cycles),
            spans=SpanCollector(),
        )

    # -- lifecycle ------------------------------------------------------

    def bind(self, system) -> None:
        """Attach to a system run; resets per-run state if reused."""
        self.system = system
        if self.sampler is not None:
            self.sampler.reset()
        if self.spans is not None:
            system.attach(self.spans)

    @property
    def events(self):
        """Events collected by the first in-memory sink, if any."""
        if self.tracer is not None:
            for sink in self.tracer.sinks:
                if isinstance(sink, MemorySink):
                    return sink.events
        return []

    @property
    def samples(self):
        return self.sampler.samples if self.sampler is not None else []

    def summary(self) -> dict:
        """Compact JSON-friendly digest (campaign stores keep this)."""
        out = {
            "events": (self.tracer.events_emitted
                       if self.tracer is not None else 0),
            "epochs": len(self.samples),
        }
        if self.spans is not None:
            out["spans"] = self.spans.requests_completed
        system = self.system
        if system is not None:
            out["requests"] = system.sched_decisions
            banks = [bank for channel in system.channels
                     for bank in channel.banks]
            hits = sum(bank.row_hits for bank in banks)
            total = hits + sum(bank.row_conflicts + bank.row_closed
                               for bank in banks)
            out["row_hit_rate"] = hits / total if total else 0.0
            out["quanta"] = system.quantum_count
        return out

    def close(self) -> None:
        """Flush and close every sink (writes the Perfetto file)."""
        if self.tracer is not None:
            self.tracer.close()


__all__ = [
    "EVENT_SCHEMA",
    "EpochSample",
    "EpochSampler",
    "JsonlSink",
    "MemorySink",
    "PerfettoSink",
    "SchemaError",
    "Sink",
    "Telemetry",
    "Tracer",
    "configure_logging",
    "events_to_perfetto",
    "get_logger",
    "jsonl_to_perfetto",
    "memory_tracer",
    "validate_event",
    "validate_jsonl",
    "write_perfetto",
]
