"""repro.telemetry — cycle-level tracing, metrics, and observability.

Three cooperating pieces, all optional and all zero-cost when unused:

* :class:`~repro.telemetry.registry.MetricsRegistry` — *polled
  providers* over the attribute counters components already keep.
  Every :class:`~repro.sim.system.System` builds one
  (``system.metrics``) and registers its providers at the first read;
  polling happens only when a snapshot is taken.
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
from repro.telemetry.registry import MetricsRegistry
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
    """A run's observability bundle: tracer + sampler + registry.

    Pass one to :class:`repro.sim.System`; the system binds it at
    construction (resetting any state left by a previous run) and
    drives the tracer and sampler from its event loop.  ``registry``
    is optional — when omitted the system builds its own, reachable as
    ``system.metrics`` either way.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 sampler: Optional[EpochSampler] = None,
                 registry: Optional[MetricsRegistry] = None,
                 spans=None) -> None:
        self.tracer = tracer
        self.sampler = sampler
        self.registry = registry
        #: optional repro.obs.spans.SpanCollector; the system attaches it
        #: as an observer at construction
        self.spans = spans
        self.system = None

    # -- construction helpers -------------------------------------------

    @classmethod
    def tracing(cls, jsonl_path=None, perfetto_path=None,
                epoch_cycles: Optional[int] = None,
                snapshot_registry: bool = False,
                validate: bool = False) -> "Telemetry":
        """Telemetry with file sinks and an epoch sampler."""
        sinks = []
        if jsonl_path is not None:
            sinks.append(JsonlSink(jsonl_path))
        if perfetto_path is not None:
            sinks.append(PerfettoSink(perfetto_path))
        return cls(
            tracer=Tracer(sinks, validate=validate),
            sampler=EpochSampler(epoch_cycles,
                                 snapshot_registry=snapshot_registry),
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
        if self.system is not None and self.registry is not None:
            self.registry.reset()
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
        if self.system is not None:
            reg = self.system.metrics
            out["requests"] = int(reg.sum("dram.channel.serviced_requests"))
            hits = reg.sum("dram.bank.row_hits")
            total = (hits + reg.sum("dram.bank.row_conflicts")
                     + reg.sum("dram.bank.row_closed"))
            out["row_hit_rate"] = hits / total if total else 0.0
            out["quanta"] = int(reg.value("sim.quanta"))
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
    "MetricsRegistry",
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
