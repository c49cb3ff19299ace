"""Request-lifecycle spans and scheduler-independent interference accounting.

Every memory request's round trip decomposes into *waits*, each of
which has a cause and — crucially for the paper's argument — a
**culprit thread**:

* ``queue`` — the bank was servicing someone else's request.  The
  culprit is the thread being serviced.  These are the cycles STFM's
  interference accounting estimates (Mutlu & Moscibroda, MICRO 2007);
  the span mechanism applies that accounting to every scheduler.
* ``row`` — the access was a row-buffer conflict: the precharge
  penalty is charged to the thread whose open row had to be closed.
* ``bus`` — the burst waited for the channel data bus behind another
  thread's burst.
* ``service`` — intrinsic service the request would pay alone
  (activate, burst, fixed round-trip overhead) plus self-inflicted
  waits, charged to the request's own thread.

The :class:`SpanCollector` is an observer (:mod:`repro.sim.observer`)
attached before the run (``System(..., telemetry=Telemetry(spans=...))``
or :func:`attach_spans`).  Collectors never mutate simulation state, so
spans on/off runs are bit-identical.

A collector keeps two kinds of books:

* **grant-rule counters** — per-request ``interference`` cycles,
  per-thread totals and the T×T victim/culprit matrix, all maintained
  with STFM's original grant-time rule: when a request is granted
  service, every *other* thread's request still waiting at that bank
  is delayed by the full service occupancy.  ``t_interference``
  therefore matches STFM's own ``_t_interference`` books *exactly* —
  an independent cross-check of the policy's accounting
  (:func:`repro.obs.attribution.reconcile`).
* **intervals** — per request, the wait intervals themselves:
  disjoint, cause-tagged, culprit-tagged, and tiling the request's
  entire latency from arrival to completion (an invariant the
  :mod:`repro.validate` oracle checks).  Spans also capture the
  *partial* interval a request spends behind a service that was already
  underway when it arrived; those cycles complete the latency tiling
  but are kept out of the matrix so the matrix stays STFM-comparable.

A collector stores ints, not spans.  Each bank keeps a grant log,
an ``array('q')`` of ``(start, end, culprit)`` per grant that left
requests waiting: a request's queue waits are the slice of its bank's
log between its arrival and its own grant.  Each completed request is
one fixed-width row of ints (:data:`ROW_FIELDS`) in a single
``array('q')``: its ids, its log slice, the occupant of the service it
arrived behind, and its grant's timing fields.  The partial wait and
the service intervals are derived from those ints when a span is read.
"""

from __future__ import annotations

from array import array
from functools import partial
from struct import Struct
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.dram.request import MemoryRequest
from repro.sim.observer import Observer

#: wait-interval causes
CAUSE_QUEUE = "queue"      # bank busy with another request
CAUSE_ROW = "row"          # precharge penalty from a conflicting open row
CAUSE_BUS = "bus"          # burst serialised behind another burst
CAUSE_SERVICE = "service"  # intrinsic service / self-inflicted wait

CAUSES = (CAUSE_QUEUE, CAUSE_ROW, CAUSE_BUS, CAUSE_SERVICE)

#: access kinds, indexed by the kind code a stored row carries
KINDS = ("hit", "closed", "conflict")
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

#: the ints of one stored request, in order; -1 stands for "none"
#: (no partial wait, not yet granted, no activate, no blocker).  A
#: request still open at the horizon is the same row without
#: ``completion``.
ROW_FIELDS = (
    "request_id", "thread_id", "channel_id", "bank_id", "row", "arrival",
    "is_prefetch",
    # its bank's grant log, from arrival ...
    "log_start",
    # ... the service underway at arrival: its end and occupant ...
    "partial_end", "partial_culprit",
    # ... to its own grant, and that grant's timing
    "log_end", "start_service", "kind", "activate", "prep_done",
    "data_start", "data_end", "done", "row_blocker", "bus_blocker",
    "completion",
)
ROW_WIDTH = len(ROW_FIELDS)
_ARRIVAL_WIDTH = ROW_FIELDS.index("log_end")
#: the fields of a request not yet granted, after its arrival ones
_UNGRANTED = (-1,) * (ROW_WIDTH - 1 - _ARRIVAL_WIDTH)
#: a completed row and a grant-log entry as machine int64s, packed in
#: one C call for ``array.frombytes`` (``array.extend`` converts and
#: grows item by item)
_pack_row = Struct(f"{ROW_WIDTH}q").pack
_pack_grant = Struct("3q").pack


class WaitInterval(NamedTuple):
    """One cause-tagged slice of a request's latency.

    ``partial`` marks a queue interval whose blocking service was
    already underway when the victim arrived: it counts toward the
    latency tiling but not toward the grant-rule attribution matrix.
    """

    start: int
    end: int
    culprit: int
    cause: str
    partial: bool = False

    @property
    def cycles(self) -> int:
        return self.end - self.start


#: ``WaitInterval._make`` without its Python frame (spans are built in
#: bulk when read)
_interval = partial(tuple.__new__, WaitInterval)


class RequestSpan:
    """The decomposed lifecycle of one memory request.

    A :class:`SpanCollector` builds spans from its stored ints when
    they are read; ``intervals`` is a plain list of
    :class:`WaitInterval`.  A span the collector's ``spans`` (or
    ``all_spans()``) built for a completed request is kept and is what
    every later reader sees, so edits to it stick.
    ``start_service`` and ``kind`` are None until the request is
    granted, ``completion`` until it completes.
    """

    __slots__ = (
        "request_id", "thread_id", "channel_id", "bank_id", "row",
        "arrival", "start_service", "completion", "kind", "is_prefetch",
        "intervals",
    )

    def __init__(self, request_id: int, thread_id: int, channel_id: int,
                 bank_id: int, row: int, arrival: int,
                 start_service: Optional[int], completion: Optional[int],
                 kind: Optional[str], is_prefetch: bool,
                 intervals: List[WaitInterval]):
        self.request_id = request_id
        self.thread_id = thread_id
        self.channel_id = channel_id
        self.bank_id = bank_id
        self.row = row
        self.arrival = arrival
        self.start_service = start_service
        self.completion = completion
        self.kind = kind
        self.is_prefetch = is_prefetch
        self.intervals = intervals

    @property
    def latency(self) -> Optional[int]:
        if self.completion is None:
            return None
        return self.completion - self.arrival

    @property
    def queueing(self) -> Optional[int]:
        """Cycles between arrival and the start of bank service."""
        if self.start_service is None:
            return None
        return self.start_service - self.arrival

    def cycles_by_cause(self) -> Dict[str, int]:
        """Total cycles per cause (all intervals, culprits included)."""
        out = {cause: 0 for cause in CAUSES}
        for interval in self.intervals:
            out[interval.cause] += interval.end - interval.start
        return out

    def interference_cycles(self) -> int:
        """Cycles attributable to *other* threads (any cause)."""
        return sum(
            i.end - i.start
            for i in self.intervals
            if i.culprit != self.thread_id
        )

    def __repr__(self) -> str:
        return (
            f"RequestSpan(t{self.thread_id} ch{self.channel_id} "
            f"b{self.bank_id} {self.kind} @{self.arrival}"
            f"->{self.completion}, {len(self.intervals)} intervals)"
        )


class SpanCollector(Observer):
    """Accumulates spans and interference attribution for one run.

    Attached either via the :class:`repro.telemetry.Telemetry` bundle
    (``Telemetry(spans=SpanCollector())``) or with :func:`attach_spans`.
    The collector is strictly read-only with respect to simulation
    state: it mutates only ``request.interference``, which no
    scheduling decision of any registered policy reads.

    The grant-rule books (``request.interference``, ``t_interference``,
    ``matrix``, ``total_attributed``, ``completed_interference``) are
    updated for every waiting request at every grant.  The collector
    also stores each request as ints (see the module docstring): what
    it holds grows with banks and grants, 24 bytes per grant that
    leaves requests waiting, plus one row of :data:`ROW_WIDTH` ints per
    completed request.

    Spans are built when read.  :meth:`iter_spans` builds them one at a
    time and keeps none; ``spans`` and :meth:`all_spans` build every
    completed span once and keep it (see :class:`RequestSpan`).
    """

    name = "spans"

    def __init__(self):
        self.num_threads = 0
        #: grant-rule queueing cycles charged to other threads, per victim
        self.t_interference: List[int] = []
        #: total request latency (arrival -> completion), per thread
        self.t_shared: List[int] = []
        #: grant-rule cycles charged to *completed* requests, per thread:
        #: the part of ``t_interference`` that ``t_shared`` covers
        #: (requests still queued at the horizon are charged in
        #: ``t_interference`` but have no latency yet)
        self.completed_interference: List[int] = []
        #: grant-rule delay matrix: ``matrix[victim][culprit]``
        self.matrix: List[List[int]] = []
        #: sum of all off-diagonal matrix entries
        self.total_attributed = 0
        self.requests_completed = 0
        self._reset(0, 0)

    def _reset(self, num_banks: int, banks_per_channel: int) -> None:
        #: completed requests, ROW_WIDTH ints each, by completion
        self._rows = array("q")
        #: spans built from the first ``len(_built)`` rows
        self._built: List[RequestSpan] = []
        #: request id -> its row so far (no ``completion``), by arrival
        self._open = {}
        #: per bank (``channel * banks_per_channel + bank``): the grant
        #: log, and the end and occupant of its latest service
        self._logs = [array("q") for _ in range(num_banks)]
        self._busy_until = [0] * num_banks
        self._busy_by = [0] * num_banks
        self._banks_per_channel = banks_per_channel

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def begin(self, system) -> None:
        """Size per-thread state for ``system`` and reset the run."""
        n = system.workload.num_threads
        self.num_threads = n
        self.t_interference = [0] * n
        self.t_shared = [0] * n
        self.completed_interference = [0] * n
        self.matrix = [[0] * n for _ in range(n)]
        self.total_attributed = 0
        self.requests_completed = 0
        self._reset(system.config.num_banks,
                    system.config.banks_per_channel)

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------

    def on_arrival(self, request: MemoryRequest, now: int) -> None:
        """A read/prefetch request entered a controller queue."""
        bank = request.channel_id * self._banks_per_channel + request.bank_id
        busy_until = self._busy_until[bank]
        if busy_until > now:
            # the bank is mid-service: the victim waits out the tail of
            # a grant it never witnessed (partial => not in the matrix)
            culprit = self._busy_by[bank]
        else:
            busy_until = culprit = -1
        self._open[request.request_id] = (
            request.request_id, request.thread_id, request.channel_id,
            request.bank_id, request.row, request.arrival,
            request.is_prefetch, len(self._logs[bank]), busy_until, culprit,
        ) + _UNGRANTED

    def on_grant(self, request: MemoryRequest, waiting, access,
                 completion: int, now: int) -> None:
        """``request`` was granted bank service; ``waiting`` still queue.

        Applies the grant-time attribution rule (identical to STFM's
        original accounting: full service occupancy charged to every
        waiting request of another thread), logs the grant once for the
        requests it delays and stores the granted request's timing.
        """
        tid = request.thread_id
        end = access.data_end
        busy = end - now
        t_interference = self.t_interference
        matrix = self.matrix
        for other in waiting:
            other_tid = other.thread_id
            if other_tid != tid:
                other.interference += busy
                t_interference[other_tid] += busy
                matrix[other_tid][tid] += busy
                self.total_attributed += busy
        bank = request.channel_id * self._banks_per_channel + request.bank_id
        log = self._logs[bank]
        request_id = request.request_id
        state = self._open.get(request_id)
        if state is not None:
            activate = access.activate_time
            row_blocker = access.row_blocker
            bus_blocker = access.bus_blocker
            self._open[request_id] = state[:_ARRIVAL_WIDTH] + (
                len(log), now, _KIND_CODES[access.kind],
                -1 if activate is None else activate,
                access.prep_done, access.data_start, end, completion,
                -1 if row_blocker is None else row_blocker,
                -1 if bus_blocker is None else bus_blocker,
            )
        # every request still queued waits out this grant, and only
        # those: a later arrival's slice starts after it
        if waiting:
            log.frombytes(_pack_grant(now, end, tid))
        self._busy_until[bank] = end
        self._busy_by[bank] = tid

    def on_write(self, request: MemoryRequest, access, now: int) -> None:
        """A buffered write was drained; the bank is busy on its behalf."""
        bank = request.channel_id * self._banks_per_channel + request.bank_id
        self._busy_until[bank] = access.data_end
        self._busy_by[bank] = request.thread_id

    def on_complete(self, request: MemoryRequest, now: int) -> None:
        """``request`` returned its data; store its row."""
        tid = request.thread_id
        self.t_shared[tid] += now - request.arrival
        self.completed_interference[tid] += request.interference
        self.requests_completed += 1
        state = self._open.pop(request.request_id, None)
        if state is not None:
            self._rows.frombytes(_pack_row(*state, now))

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------

    @property
    def spans(self) -> List[RequestSpan]:
        """Completed spans, in completion order.

        Built on first read and kept: later reads, and every reader of
        :meth:`iter_spans`, see these objects.
        """
        built = self._built
        if len(built) * ROW_WIDTH < len(self._rows):
            built.extend(self._completed(len(built)))
        return built

    def all_spans(self) -> List[RequestSpan]:
        """Completed spans plus those still open at the horizon.

        The grant-rule totals include delays charged to requests that
        never completed within the run, so reconciliation against the
        matrix must see open spans too.  Open spans come last, by
        arrival, and are built afresh on each read.
        """
        return self.spans + [self._span(state, None)
                             for state in self._open.values()]

    def iter_spans(self, include_open: bool = True
                   ) -> Iterator[RequestSpan]:
        """The spans of :meth:`all_spans` (of ``spans`` without
        ``include_open``), in the same order, one at a time.

        Spans that ``spans`` already built are yielded as they are; the
        rest are built here and not kept.
        """
        yield from self._built
        yield from self._completed(len(self._built))
        if include_open:
            for state in self._open.values():
                yield self._span(state, None)

    def _completed(self, first: int) -> Iterator[RequestSpan]:
        rows = self._rows
        for end in range(first * ROW_WIDTH + ROW_WIDTH - 1, len(rows),
                         ROW_WIDTH):
            yield self._span(rows[end - ROW_WIDTH + 1:end], rows[end])

    def _span(self, fields, completion: Optional[int]) -> RequestSpan:
        """Build one span from its stored ints.

        The partial wait starts at arrival; the service side tiles
        [grant, done) from the grant's timing breakdown, so the tiling
        is exact under both the Table-3 model and detailed timings
        (tRAS/tRC/tFAW/refresh only shift the boundaries, never reorder
        them).
        """
        (request_id, tid, channel_id, bank_id, row_id, arrival, is_prefetch,
         log_start, partial_end, partial_culprit, log_end, start, kind,
         activate, prep_done, data_start, data_end, done, row_blocker,
         bus_blocker) = fields
        make = _interval
        intervals = [make((arrival, partial_end, partial_culprit,
                           CAUSE_QUEUE, True))] if partial_end >= 0 else []
        log = self._logs[channel_id * self._banks_per_channel + bank_id]
        waits = iter(log[log_start:log_end if start >= 0 else len(log)])
        intervals += [make((begin, end, culprit, CAUSE_QUEUE, False))
                      for begin, end, culprit in zip(waits, waits, waits)]
        if start < 0:
            return RequestSpan(request_id, tid, channel_id, bank_id, row_id,
                               arrival, None, completion, None,
                               bool(is_prefetch), intervals)
        append = intervals.append
        kind = KINDS[kind]
        if activate >= 0:
            if activate > start:
                if kind == "conflict":
                    culprit = row_blocker if row_blocker >= 0 else tid
                    append(make((start, activate, culprit, CAUSE_ROW,
                                 False)))
                else:
                    # a "closed" activate delayed by channel-level
                    # bounds (tRRD/tFAW/refresh): self-charged service
                    append(make((start, activate, tid, CAUSE_SERVICE,
                                 False)))
            if prep_done > activate:
                append(make((activate, prep_done, tid, CAUSE_SERVICE,
                             False)))
        elif prep_done > start:
            # row hit shifted by a refresh window (detailed timings)
            append(make((start, prep_done, tid, CAUSE_SERVICE, False)))
        if data_start > prep_done:
            culprit = bus_blocker if bus_blocker >= 0 else tid
            append(make((prep_done, data_start, culprit, CAUSE_BUS, False)))
        append(make((data_start, data_end, tid, CAUSE_SERVICE, False)))
        if done > data_end:
            append(make((data_end, done, tid, CAUSE_SERVICE, False)))
        return RequestSpan(request_id, tid, channel_id, bank_id, row_id,
                           arrival, start, completion, kind,
                           bool(is_prefetch), intervals)


def attach_spans(system, collector: Optional[SpanCollector] = None
                 ) -> SpanCollector:
    """Attach a collector (a new one by default) to ``system`` before
    its run."""
    return system.attach(collector or SpanCollector())
