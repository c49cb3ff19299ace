"""Tracer sinks: JSONL, in-memory, and Chrome/Perfetto trace_event.

The JSONL stream (one event object per line, schema in
:mod:`repro.telemetry.schema`) is the canonical format; the Perfetto
sink — and the :func:`jsonl_to_perfetto` converter — render the same
events into the Chrome ``trace_event`` JSON that https://ui.perfetto.dev
and ``chrome://tracing`` open directly.  :func:`write_perfetto` is the
one writer of that document: the sink, the converter and the
divergence export (:func:`repro.diverge.export_perfetto`) all go
through it.

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
from pathlib import Path
from typing import Dict, Iterable, List, Optional


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
    """Base class: receives schema'd event dicts from the tracer."""

    def write(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class NullSink(Sink):
    """Drop every event: the tracer still counts what it emits."""

    def write(self, event: dict) -> None:
        pass


class MemorySink(Sink):
    """Collect events into a list (tests, report rendering)."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)


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
    """Buffer events and write a Perfetto-loadable JSON file on close."""

    def __init__(self, path) -> None:
        self.path = path
        self._events: List[dict] = []

    def write(self, event: dict) -> None:
        self._events.append(event)

    def close(self) -> None:
        if self._events is None:
            return
        write_perfetto(events_to_perfetto(self._events)["traceEvents"],
                       self.path)
        self._events = None


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


def write_perfetto(trace: List[dict], path) -> Path:
    """Write trace_event records to ``path`` as one Chrome trace_event
    JSON document, creating missing directories; the one Perfetto
    file writer."""
    with _open_creating_dirs(path) as f:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, f)
    return Path(path)


def events_to_perfetto(events: Iterable[dict],
                       banks_per_channel: Optional[int] = None) -> dict:
    """Convert schema'd events to a Chrome trace_event JSON object."""
    trace: List[dict] = []
    bank_tracks: Dict[tuple, int] = {}
    thread_tracks: set = set()
    if banks_per_channel is None:
        banks_per_channel = 64  # track ids only need to be distinct

    def bank_tid(ch: int, bank: int) -> int:
        key = (ch, bank)
        if key not in bank_tracks:
            tid = ch * banks_per_channel + bank
            bank_tracks[key] = tid
            trace.append(track_name(_PID_DRAM, f"ch{ch} bank{bank}", tid))
        return bank_tracks[key]

    def thread_tid(tid: int) -> int:
        if tid not in thread_tracks:
            thread_tracks.add(tid)
            trace.append(track_name(_PID_THREADS, f"thread {tid}", tid))
        return tid

    trace += [track_name(_PID_DRAM, "DRAM"),
              track_name(_PID_POLICY, "policy"),
              track_name(_PID_THREADS, "threads")]
    # running explain counters: cumulative disagreements per shadow
    disagreements: Dict[str, int] = {}

    for event in events:
        ev, ts = event["ev"], event["ts"]
        if ev == "dram_cmd":
            trace.append({
                "ph": "X", "pid": _PID_DRAM,
                "tid": bank_tid(event["ch"], event["bank"]),
                "ts": event["start"],
                "dur": max(1, event["end"] - event["start"]),
                "name": event["kind"],
                "args": {"thread": event["tid"], "row": event["row"],
                         "write": event.get("write", False)},
            })
        elif ev == "sched_decision":
            trace.append({
                "ph": "i", "s": "t", "pid": _PID_DRAM,
                "tid": bank_tid(event["ch"], event["bank"]),
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
                tid = thread_tid(row["tid"])
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
                    "tid": bank_tid(event["ch"], event["bank"]),
                    "ts": ts, "name": "disagree",
                    "args": {"thread": event["tid"],
                             "shadows": event["disagree"],
                             "component": event["component"]},
                })
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

    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def jsonl_to_perfetto(src_path, dst_path) -> int:
    """Convert a JSONL trace file to Perfetto JSON; returns event count."""
    events = []
    with open(src_path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    write_perfetto(events_to_perfetto(events)["traceEvents"], dst_path)
    return len(events)
