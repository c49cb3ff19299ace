"""Event tracer: fan events out to pluggable sinks.

The tracer is designed so a *disabled* tracer costs exactly one branch
at each emit site: the system binds ``self._tracer`` to ``None`` when
tracing is off and the hot path does ``if tr is not None: tr.emit(...)``.
An *enabled* tracer hands every sink each event: ``emit`` builds a
dict from keyword fields and ``write`` passes one on, while the
per-grant sites (the event loops, explain) hand ``write_row`` a row,
the events' field values in the order of
:data:`~repro.telemetry.schema.ROW_FIELDS`, and each sink decides what
the row becomes.  Events are validated against the schema only when
``validate=True`` (tests and CI), not on the production path; a row is
validated as the dicts it stands for.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.telemetry.schema import ROW_EVENTS, row_events, validate_event
from repro.telemetry.sinks import MemorySink, Sink


class Tracer:
    """Fan-out of schema'd events to sinks, with an emit counter."""

    def __init__(self, sinks: Optional[Sequence[Sink]] = None,
                 validate: bool = False) -> None:
        self.sinks: List[Sink] = list(sinks or [])
        self.validate = validate
        self.events_emitted = 0

    @property
    def enabled(self) -> bool:
        return bool(self.sinks)

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    def emit(self, ev: str, ts: int, **fields) -> None:
        """Record one event at simulation cycle ``ts``."""
        event = {"ev": ev, "ts": ts}
        event.update(fields)
        self.write(event)

    def write(self, event: dict) -> None:
        """Record one pre-built event: ``{"ev": ..., "ts": ..., **fields}``.

        The sinks keep the dict itself, so the caller must not reuse it.
        """
        if self.validate:
            validate_event(event)
        self.events_emitted += 1
        for sink in self.sinks:
            sink.write(event)

    def write_row(self, kind: str, row: Sequence) -> None:
        """Record the events one row of ``kind`` stands for."""
        if self.validate:
            for event in row_events(kind, row):
                validate_event(event)
        self.events_emitted += len(ROW_EVENTS[kind])
        for sink in self.sinks:
            sink.write_row(kind, row)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def memory_tracer(validate: bool = True) -> "Tracer":
    """A tracer with one in-memory sink (convenient in tests)."""
    return Tracer([MemorySink()], validate=validate)
