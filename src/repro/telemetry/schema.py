"""Event schema for the tracer's JSONL stream.

Every traced event is one JSON object with at least:

* ``ev`` — the event type (a key of :data:`EVENT_SCHEMA`);
* ``ts`` — the simulation cycle the event happened at (int, >= 0).

plus the type's own required fields.  Extra fields are allowed (they
flow through to the sinks untouched); missing or mistyped required
fields fail :func:`validate_event`.

The per-grant events travel as *rows*: one tuple of field values in
the fixed order :data:`ROW_FIELDS` gives, in place of the dicts.  A
``grant`` row stands for a ``sched_decision`` and a ``dram_cmd``, an
``explain`` row for one ``explain`` event; :func:`row_events` builds
the dicts a row stands for, keys in schema order.

The schema doubles as documentation: docs/TELEMETRY.md lists the same
definitions, and CI validates a freshly traced run against it.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: field-name -> allowed types (json-decoded)
_NUM = (int, float)
_INT = (int,)
_STR = (str,)
_LIST = (list,)
_DICT = (dict,)

#: event type -> {field: allowed types}; every event also needs ev/ts.
EVENT_SCHEMA: Dict[str, Dict[str, Tuple[type, ...]]] = {
    # run lifecycle
    "run_begin": {"workload": _STR, "scheduler": _STR, "seed": _INT,
                  "threads": _INT},
    "run_end": {"requests": _INT, "row_hits": _INT},
    # DRAM command stream: one event per serviced access.  ``kind`` is
    # the row-buffer outcome (hit | closed | conflict).
    "dram_cmd": {"ch": _INT, "bank": _INT, "row": _INT, "tid": _INT,
                 "kind": _STR, "start": _INT, "end": _INT},
    # scheduler picked ``tid``'s request at a free bank; ``queued`` is
    # the number of requests that were waiting there.
    "sched_decision": {"ch": _INT, "bank": _INT, "tid": _INT,
                       "queued": _INT, "row_hit": (bool,)},
    # quantum boundary: per-thread monitored metrics for the quantum
    # that just ended.
    "quantum": {"index": _INT, "mpki": _LIST, "bw": _LIST, "blp": _LIST,
                "rbl": _LIST},
    # TCM clustering decision (one per quantum).
    "cluster": {"quantum": _INT, "latency": _LIST, "bandwidth": _LIST},
    # TCM bandwidth-cluster shuffle: the algorithm chosen and the new
    # priority order (last element = highest rank).
    "shuffle": {"algo": _STR, "order": _LIST},
    # ATLAS per-quantum ranking (tid -> rank, larger = higher).
    "rank": {"ranks": _DICT},
    # PAR-BS batch formation.
    "batch": {"marked": _INT},
    # STFM fairness evaluation.
    "stfm_eval": {"unfairness": _NUM},
    # epoch sampler output: per-thread time-series row.
    "epoch": {"cycle": _INT, "threads": _LIST},
    # decision forensics (repro.explain): one event per grant.
    # ``tie`` is the tie-break provenance (priority | queue-order |
    # only-candidate); ``component`` names the priority slot that
    # decided the grant ("" for ties and single-candidate queues);
    # ``disagree`` lists the shadow policies that would have granted a
    # different request.
    "explain": {"ch": _INT, "bank": _INT, "tid": _INT, "queued": _INT,
                "tie": _STR, "tied": _INT, "component": _STR,
                "delta": _NUM, "disagree": _LIST},
    # starvation watch (repro.explain): a thread's oldest pending
    # request crossed the age threshold.
    "starvation": {"tid": _INT, "age": _INT, "pending": _INT},
}

_KIND_VALUES = {"hit", "closed", "conflict"}

#: row kind -> its field names, in row order
ROW_FIELDS: Dict[str, Tuple[str, ...]] = {
    "grant": ("ts", "ch", "bank", "tid", "queued", "row", "kind", "end"),
    # ``delta`` is a float
    "explain": ("ts", "ch", "bank", "tid", "queued", "tie", "tied",
                "component", "delta", "disagree"),
}

#: row kind -> the events one row stands for, in emission order
ROW_EVENTS: Dict[str, Tuple[str, ...]] = {
    "grant": ("sched_decision", "dram_cmd"),
    "explain": ("explain",),
}

#: event fields a row stands for without holding them: the row field
#: each is computed from, and how (``None``: it is that field's value)
ROW_DERIVED: Dict[str, Tuple[str, Optional[Callable]]] = {
    "row_hit": ("kind", "hit".__eq__),
    "start": ("ts", None),
}


class SchemaError(ValueError):
    """An event failed schema validation."""


def _row_plan(kind: str) -> tuple:
    """``(width, derive, events, plans)`` for :func:`row_events`.

    A row is read extended by its derived values and then its event
    names: ``derive`` holds one ``(row index, function)`` per computed
    field and ``plans`` one tuple of ``(key, extended index)`` pairs
    per event, keys in schema order.
    """
    fields = ROW_FIELDS[kind]
    events = ROW_EVENTS[kind]
    at = {name: i for i, name in enumerate(fields)}
    derive = []
    for ev in events:
        for key in EVENT_SCHEMA[ev]:
            if key not in at:
                source, fn = ROW_DERIVED[key]
                if fn is None:
                    at[key] = at[source]
                else:
                    at[key] = len(fields) + len(derive)
                    derive.append((at[source], fn))
    first = len(fields) + len(derive)
    plans = tuple(
        (("ev", first + n), ("ts", at["ts"]))
        + tuple((key, at[key]) for key in EVENT_SCHEMA[ev])
        for n, ev in enumerate(events)
    )
    return len(fields), tuple(derive), events, plans


_ROW_PLANS = {kind: _row_plan(kind) for kind in ROW_FIELDS}


def row_events(kind: str, row: Sequence) -> List[dict]:
    """The event dicts one row of ``kind`` stands for.

    Keys come in schema order, after ``ev`` and ``ts``; a row of the
    wrong width or an unknown kind raises :class:`SchemaError`.
    """
    plan = _ROW_PLANS.get(kind)
    if plan is None:
        raise SchemaError(f"unknown row kind {kind!r}")
    width, derive, events, plans = plan
    if len(row) != width:
        raise SchemaError(
            f"{kind} row: expected {width} fields, got {len(row)}")
    values = (*row, *[fn(row[i]) for i, fn in derive], *events)
    return [{key: values[i] for key, i in pairs} for pairs in plans]


def validate_event(event: dict) -> None:
    """Raise :class:`SchemaError` unless ``event`` matches the schema."""
    if not isinstance(event, dict):
        raise SchemaError(f"event must be an object, got {type(event).__name__}")
    ev = event.get("ev")
    if ev not in EVENT_SCHEMA:
        raise SchemaError(f"unknown event type {ev!r}")
    ts = event.get("ts")
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise SchemaError(f"{ev}: ts must be a non-negative int, got {ts!r}")
    for name, types in EVENT_SCHEMA[ev].items():
        if name not in event:
            raise SchemaError(f"{ev}: missing required field {name!r}")
        value = event[name]
        if bool not in types and isinstance(value, bool):
            raise SchemaError(f"{ev}: field {name!r} must not be a bool")
        if not isinstance(value, types):
            raise SchemaError(
                f"{ev}: field {name!r} expected "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
    if ev == "dram_cmd" and event["kind"] not in _KIND_VALUES:
        raise SchemaError(f"dram_cmd: bad kind {event['kind']!r}")
    if ev == "dram_cmd" and event["end"] < event["start"]:
        raise SchemaError("dram_cmd: end before start")


def validate_jsonl(path) -> int:
    """Validate a JSONL trace file; returns the number of events.

    Raises :class:`SchemaError` with the offending line number.
    """
    count = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            try:
                validate_event(event)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            count += 1
    return count
