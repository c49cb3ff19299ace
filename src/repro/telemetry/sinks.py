"""Tracer sinks: JSONL, in-memory, and Chrome/Perfetto trace_event.

A sink receives events two ways: ``write`` takes one event dict, and
``write_row`` one *row*, the field values of the per-grant events in
the order :data:`~repro.telemetry.schema.ROW_FIELDS` gives.  The base
:class:`Sink` turns a row into the dicts it stands for and writes
them, so a sink that only knows dicts sees every event; the null and
in-memory sinks take rows as they are.

The JSONL stream (one event object per line, schema in
:mod:`repro.telemetry.schema`) is the canonical format; the Perfetto
sink — and the :func:`jsonl_to_perfetto` converter — render the same
events into the Chrome ``trace_event`` JSON that https://ui.perfetto.dev
and ``chrome://tracing`` open directly.  One incremental converter
turns events into trace records for all of them, and
:func:`write_perfetto` is the one writer of that document: the sink
and the converter both go through it.

* each DRAM bank is a thread-track of the "DRAM" process: ``dram_cmd``
  events become duration slices named by their row-buffer outcome;
* scheduler decisions are thread-scoped instants on the same tracks;
* policy events (clustering, shuffles, rankings, batches) land on a
  "policy" process;
* epoch samples become per-thread counter tracks (MPKI / BLP / RBL),
  which Perfetto plots as time series.

Simulation cycles are written as microseconds (1 cycle = 1us) since
trace_event timestamps are always in microseconds.
"""

from __future__ import annotations

import json
import os
from array import array
from pathlib import Path
from struct import Struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.telemetry.schema import (
    EVENT_SCHEMA,
    ROW_EVENTS,
    ROW_FIELDS,
    row_events,
)


def _open_creating_dirs(path, mode: str = "w"):
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, mode, encoding="utf-8")

#: trace_event pids for the synthetic processes.
_PID_DRAM = 1
_PID_POLICY = 2
_PID_THREADS = 3


class Sink:
    """Base class: receives schema'd events from the tracer."""

    def write(self, event: dict) -> None:
        raise NotImplementedError

    def write_row(self, kind: str, row: Sequence) -> None:
        """Receive one row of ``kind``: by default, as the event dicts
        it stands for, through :meth:`write`."""
        for event in row_events(kind, row):
            self.write(event)

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class NullSink(Sink):
    """Drop every event: the tracer still counts what it emits."""

    def write(self, event: dict) -> None:
        pass

    def write_row(self, kind: str, row: Sequence) -> None:
        pass


class _RowTable:
    """One row kind's rows, each ``width`` ints of one ``array('q')``.

    A field whose type is not int holds a code instead: a string's or
    a list's is its index in the sink's table of values, and a float's
    is 0, its value going to ``floats``.  ``pack`` turns a row's ints
    into machine int64s in one C call, for ``ints.frombytes``.
    """

    __slots__ = ("kind", "code", "width", "coded", "lists", "reals",
                 "ints", "floats", "pack")

    def __init__(self, kind: str, code: int) -> None:
        types = {"ts": (int,)}
        for ev in ROW_EVENTS[kind]:
            types.update(EVENT_SCHEMA[ev])
        fields = [types[name] for name in ROW_FIELDS[kind]]
        self.kind = kind
        self.code = code
        self.width = len(fields)
        self.coded = tuple(i for i, t in enumerate(fields)
                           if int not in t and float not in t)
        self.lists = tuple(i for i, t in enumerate(fields) if list in t)
        self.reals = tuple(i for i, t in enumerate(fields) if float in t)
        self.ints = array("q")
        self.floats = array("d")
        self.pack = Struct(f"{self.width}q").pack

    def row(self, index: int, values: list) -> list:
        """Row ``index`` as written, each field its own value again."""
        width = self.width
        row = self.ints[index * width:(index + 1) * width].tolist()
        for i in self.coded:
            row[i] = values[row[i]]
        for i in self.lists:
            row[i] = list(row[i])
        reals = self.reals
        for n, i in enumerate(reals):
            row[i] = self.floats[index * len(reals) + n]
        return row


class MemorySink(Sink):
    """Collect events in memory (tests, report rendering).

    Rows are kept as ints (one ``_RowTable`` per row kind, whose
    strings and lists are codes into one table of values) and events
    written as dicts as they are; one log of codes keeps their order.
    :attr:`events` builds the dicts on first read, keeps them, and
    extends them on later reads.
    """

    def __init__(self) -> None:
        self._tables = {kind: _RowTable(kind, code)
                        for code, kind in enumerate(ROW_FIELDS, start=1)}
        #: per write, in order: 0 for a dict, else its row kind's code
        self._order = array("b")
        self._dicts: List[dict] = []
        #: coded values by code, and their codes; a list is keyed and
        #: kept as a tuple
        self._values: list = []
        self._codes: dict = {}
        self._built: List[dict] = []
        #: per code, the dicts or rows already in ``_built``
        self._taken = [0] * (len(self._tables) + 1)

    def write(self, event: dict) -> None:
        self._dicts.append(event)
        self._order.append(0)

    def write_row(self, kind: str, row: Sequence) -> None:
        table = self._tables[kind]
        values = list(row)
        codes = self._codes
        for i in table.coded:
            key = values[i]
            if type(key) is list:
                key = tuple(key)
            code = codes.get(key)
            if code is None:
                code = codes[key] = len(self._values)
                self._values.append(key)
            values[i] = code
        for i in table.reals:
            table.floats.append(values[i])
            values[i] = 0
        table.ints.frombytes(table.pack(*values))
        self._order.append(table.code)

    @property
    def events(self) -> List[dict]:
        """Every event written, in order, as dicts.

        Built on first read and kept: later reads see these objects,
        extended by what was written since.
        """
        built = self._built
        taken = self._taken
        first = sum(taken)
        if first < len(self._order):
            tables = [None, *self._tables.values()]
            for code in self._order[first:]:
                index = taken[code]
                taken[code] = index + 1
                if code == 0:
                    built.append(self._dicts[index])
                else:
                    table = tables[code]
                    built.extend(row_events(
                        table.kind, table.row(index, self._values)))
        return built


class JsonlSink(Sink):
    """Append events to a JSONL file, one compact object per line."""

    def __init__(self, path) -> None:
        self.path = path
        self._file = _open_creating_dirs(path)

    def write(self, event: dict) -> None:
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class PerfettoSink(Sink):
    """Stream events into a Perfetto-loadable JSON file.

    Each event is converted as it arrives and its records written to a
    temporary file beside ``path``; ``close`` ends the document and
    moves it to ``path``.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._converter = _PerfettoConverter()
        self._trace: Optional[_TraceFile] = _TraceFile(path)
        for record in _process_tracks():
            self._trace.write(record)

    def write(self, event: dict) -> None:
        write = self._trace.write
        for record in self._converter.records(event):
            write(record)

    def close(self) -> None:
        if self._trace is not None:
            self._trace.close()
            self._trace = None


# ----------------------------------------------------------------------
# trace_event conversion
# ----------------------------------------------------------------------


def track_name(pid: int, name: str, tid: Optional[int] = None) -> dict:
    """Metadata record naming process ``pid``, or its track ``tid``."""
    if tid is None:
        return {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                "args": {"name": name}}
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


class _TraceFile:
    """One Chrome trace_event JSON document, written record by record.

    The records go to a temporary file beside ``path`` as they come;
    :meth:`close` ends the document and moves the file to ``path``, so
    ``path`` only ever holds a whole document.  The bytes are those
    ``json.dump`` writes for the same records.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._tmp = f"{os.fspath(path)}.tmp"
        self._file = _open_creating_dirs(self._tmp)
        self._file.write('{"traceEvents": [')
        self._sep = ""

    def write(self, record: dict) -> None:
        self._file.write(self._sep)
        self._file.write(json.dumps(record))
        self._sep = ", "

    def close(self) -> Path:
        self._file.write('], "displayTimeUnit": "ms"}')
        self._file.close()
        os.replace(self._tmp, self.path)
        return Path(self.path)

    def discard(self) -> None:
        self._file.close()
        os.remove(self._tmp)


def write_perfetto(trace: Iterable[dict], path) -> Path:
    """Write trace_event records to ``path`` as one Chrome trace_event
    JSON document, creating missing directories; the one Perfetto
    file writer."""
    out = _TraceFile(path)
    try:
        for record in trace:
            out.write(record)
    except BaseException:
        out.discard()
        raise
    return out.close()


def _process_tracks() -> List[dict]:
    """The records naming the three synthetic processes."""
    return [track_name(_PID_DRAM, "DRAM"),
            track_name(_PID_POLICY, "policy"),
            track_name(_PID_THREADS, "threads")]


class _PerfettoConverter:
    """Schema'd events to trace_event records, one event at a time.

    Keeps what the conversion carries from event to event: the bank
    and thread tracks named so far (a track's name record comes just
    before its first record) and the running count of each shadow's
    disagreements.
    """

    def __init__(self, banks_per_channel: Optional[int] = None) -> None:
        # track ids only need to be distinct
        self._banks_per_channel = (64 if banks_per_channel is None
                                   else banks_per_channel)
        self._bank_tracks: Dict[tuple, int] = {}
        self._thread_tracks: set = set()
        self._disagreements: Dict[str, int] = {}

    def _bank_tid(self, trace: List[dict], ch: int, bank: int) -> int:
        key = (ch, bank)
        tid = self._bank_tracks.get(key)
        if tid is None:
            tid = ch * self._banks_per_channel + bank
            self._bank_tracks[key] = tid
            trace.append(track_name(_PID_DRAM, f"ch{ch} bank{bank}", tid))
        return tid

    def _thread_tid(self, trace: List[dict], tid: int) -> int:
        if tid not in self._thread_tracks:
            self._thread_tracks.add(tid)
            trace.append(track_name(_PID_THREADS, f"thread {tid}", tid))
        return tid

    def records(self, event: dict) -> List[dict]:
        """The records ``event`` becomes, in document order."""
        trace: List[dict] = []
        ev, ts = event["ev"], event["ts"]
        if ev == "dram_cmd":
            trace.append({
                "ph": "X", "pid": _PID_DRAM,
                "tid": self._bank_tid(trace, event["ch"],
                                      event["bank"]),
                "ts": event["start"],
                "dur": max(1, event["end"] - event["start"]),
                "name": event["kind"],
                "args": {"thread": event["tid"], "row": event["row"],
                         "write": event.get("write", False)},
            })
        elif ev == "sched_decision":
            trace.append({
                "ph": "i", "s": "t", "pid": _PID_DRAM,
                "tid": self._bank_tid(trace, event["ch"],
                                      event["bank"]),
                "ts": ts, "name": f"pick t{event['tid']}",
                "args": {"queued": event["queued"],
                         "row_hit": event["row_hit"]},
            })
        elif ev == "cluster":
            for tid in event["latency"]:
                trace.append({
                    "ph": "C", "pid": _PID_THREADS, "tid": 0, "ts": ts,
                    "name": f"cluster t{tid}", "args": {"latency": 1},
                })
            for tid in event["bandwidth"]:
                trace.append({
                    "ph": "C", "pid": _PID_THREADS, "tid": 0, "ts": ts,
                    "name": f"cluster t{tid}", "args": {"latency": 0},
                })
            trace.append({
                "ph": "i", "s": "p", "pid": _PID_POLICY, "tid": 0,
                "ts": ts, "name": "cluster",
                "args": {"latency": event["latency"],
                         "bandwidth": event["bandwidth"]},
            })
        elif ev == "epoch":
            for row in event["threads"]:
                tid = self._thread_tid(trace, row["tid"])
                for metric in ("mpki", "blp", "rbl"):
                    if metric in row:
                        trace.append({
                            "ph": "C", "pid": _PID_THREADS, "tid": tid,
                            "ts": ts, "name": f"{metric} t{row['tid']}",
                            "args": {metric: row[metric]},
                        })
        elif ev == "explain":
            # disagreement instants on the granting bank's track, plus
            # cumulative per-shadow disagreement counters on the policy
            # process (Perfetto plots them as staircase time series)
            if event["disagree"]:
                trace.append({
                    "ph": "i", "s": "t", "pid": _PID_DRAM,
                    "tid": self._bank_tid(trace, event["ch"],
                                          event["bank"]),
                    "ts": ts, "name": "disagree",
                    "args": {"thread": event["tid"],
                             "shadows": event["disagree"],
                             "component": event["component"]},
                })
            disagreements = self._disagreements
            for label in event["disagree"]:
                disagreements[label] = disagreements.get(label, 0) + 1
                trace.append({
                    "ph": "C", "pid": _PID_POLICY, "tid": 0, "ts": ts,
                    "name": f"disagreements {label}",
                    "args": {"count": disagreements[label]},
                })
        elif ev == "starvation":
            trace.append({
                "ph": "i", "s": "p", "pid": _PID_POLICY, "tid": 0,
                "ts": ts, "name": f"starvation t{event['tid']}",
                "args": {"tid": event["tid"], "age": event["age"],
                         "pending": event["pending"]},
            })
        elif ev in ("quantum", "shuffle", "rank", "batch", "stfm_eval",
                    "run_begin", "run_end"):
            args = {k: v for k, v in event.items() if k not in ("ev", "ts")}
            trace.append({
                "ph": "i", "s": "p", "pid": _PID_POLICY, "tid": 0,
                "ts": ts, "name": ev, "args": args,
            })
        # unknown events are dropped from the visual trace on purpose:
        # the JSONL stream remains the lossless record
        return trace


def _perfetto_records(events: Iterable[dict],
                      banks_per_channel: Optional[int] = None
                      ) -> Iterator[dict]:
    """The trace_event records of a whole event stream, in order."""
    converter = _PerfettoConverter(banks_per_channel)
    yield from _process_tracks()
    for event in events:
        yield from converter.records(event)


def events_to_perfetto(events: Iterable[dict],
                       banks_per_channel: Optional[int] = None) -> dict:
    """Convert schema'd events to a Chrome trace_event JSON object."""
    return {"traceEvents": list(_perfetto_records(events, banks_per_channel)),
            "displayTimeUnit": "ms"}


def jsonl_to_perfetto(src_path, dst_path) -> int:
    """Convert a JSONL trace file to Perfetto JSON; returns event count."""
    count = 0

    def events() -> Iterator[dict]:
        nonlocal count
        with open(src_path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    count += 1
                    yield json.loads(line)

    write_perfetto(_perfetto_records(events()), dst_path)
    return count
