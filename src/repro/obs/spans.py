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

Two accounting tiers share one class:

* **lite** (``record_intervals=False``) — per-request ``interference``
  cycles, per-thread totals and the T×T victim/culprit matrix, all
  maintained with STFM's original grant-time rule: when a request is
  granted service, every *other* thread's request still waiting at that
  bank is delayed by the full service occupancy.  ``t_interference``
  here therefore matches STFM's own ``_t_interference`` books
  *exactly* — an independent cross-check of the policy's accounting
  (:func:`repro.obs.attribution.reconcile`).
* **full** (``record_intervals=True``, the default) — additionally
  records, per request, the wait intervals themselves: disjoint,
  cause-tagged, culprit-tagged, and tiling the request's entire
  latency from arrival to completion (an invariant the
  :mod:`repro.validate` oracle checks).  Full spans also capture the
  *partial* interval a request spends behind a service that was already
  underway when it arrived; those cycles complete the latency tiling
  but are kept out of the matrix so the matrix stays STFM-comparable.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.dram.request import MemoryRequest
from repro.sim.observer import Observer

#: wait-interval causes
CAUSE_QUEUE = "queue"      # bank busy with another request
CAUSE_ROW = "row"          # precharge penalty from a conflicting open row
CAUSE_BUS = "bus"          # burst serialised behind another burst
CAUSE_SERVICE = "service"  # intrinsic service / self-inflicted wait

CAUSES = (CAUSE_QUEUE, CAUSE_ROW, CAUSE_BUS, CAUSE_SERVICE)


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


class RequestSpan:
    """The decomposed lifecycle of one memory request.

    The collector appends each wait interval as a plain
    ``(start, end, culprit, cause, partial)`` tuple; :attr:`intervals`
    turns them into :class:`WaitInterval` objects in place when read,
    so the list it returns is the span's own and edits to it stick.
    """

    __slots__ = (
        "request_id", "thread_id", "channel_id", "bank_id", "row",
        "arrival", "start_service", "completion", "kind", "is_prefetch",
        "_intervals",
    )

    def __init__(self, request: MemoryRequest):
        self.request_id = request.request_id
        self.thread_id = request.thread_id
        self.channel_id = request.channel_id
        self.bank_id = request.bank_id
        self.row = request.row
        self.arrival = request.arrival
        self.start_service: Optional[int] = None
        self.completion: Optional[int] = None
        self.kind: Optional[str] = None
        self.is_prefetch = request.is_prefetch
        self._intervals: List[tuple] = []

    @property
    def intervals(self) -> List[WaitInterval]:
        """The wait intervals, in the order the collector recorded them."""
        intervals = self._intervals
        for index, interval in enumerate(intervals):
            if type(interval) is tuple:
                intervals[index] = WaitInterval._make(interval)
        return intervals

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
    """

    name = "spans"

    def __init__(self, record_intervals: bool = True,
                 keep_spans: bool = True):
        self.record_intervals = record_intervals
        self.keep_spans = keep_spans and record_intervals
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
        self.spans: List[RequestSpan] = []
        self.requests_completed = 0
        self._open: Dict[int, RequestSpan] = {}
        #: (channel, bank) -> (busy-until, occupant thread)
        self._bank_busy: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._fixed_overhead = 0
        self._t_rcd = 0

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
        self.spans = []
        self.requests_completed = 0
        self._open = {}
        self._bank_busy = {}
        timings = system.config.timings
        self._fixed_overhead = timings.fixed_overhead
        self._t_rcd = timings.t_rcd

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------

    def on_arrival(self, request: MemoryRequest, now: int) -> None:
        """A read/prefetch request entered a controller queue."""
        if not self.record_intervals:
            return
        span = RequestSpan(request)
        self._open[request.request_id] = span
        occupied = self._bank_busy.get(
            (request.channel_id, request.bank_id)
        )
        if occupied is not None and occupied[0] > now:
            # the bank is mid-service: the victim waits out the tail of
            # a grant it never witnessed (partial => not in the matrix)
            span._intervals.append(
                (now, occupied[0], occupied[1], CAUSE_QUEUE, True)
            )

    def on_grant(self, request: MemoryRequest, waiting, access,
                 completion: int, now: int) -> None:
        """``request`` was granted bank service; ``waiting`` still queue.

        Applies the grant-time attribution rule (identical to STFM's
        original accounting: full service occupancy charged to every
        waiting request of another thread) and, in full mode, records
        the granted request's own service-side intervals.
        """
        tid = request.thread_id
        end = access.data_end
        busy = end - now
        record = self.record_intervals
        t_interference = self.t_interference
        matrix = self.matrix
        open_spans = self._open
        queue_wait = (now, end, tid, CAUSE_QUEUE, False)
        for other in waiting:
            other_tid = other.thread_id
            if other_tid != tid:
                other.interference += busy
                t_interference[other_tid] += busy
                matrix[other_tid][tid] += busy
                self.total_attributed += busy
            # self-interference tiles the latency too, but never enters
            # the (zero-diagonal) matrix
            if record:
                span = open_spans.get(other.request_id)
                if span is not None:
                    span._intervals.append(queue_wait)
        if record:
            self._bank_busy[(request.channel_id, request.bank_id)] = (
                end, tid,
            )
            span = self._open.get(request.request_id)
            if span is not None:
                span.start_service = now
                span.kind = access.kind
                self._service_intervals(span, access, completion, now)

    def on_write(self, request: MemoryRequest, access, now: int) -> None:
        """A buffered write was drained; the bank is busy on its behalf."""
        if not self.record_intervals:
            return
        self._bank_busy[(request.channel_id, request.bank_id)] = (
            access.data_end, request.thread_id,
        )

    def on_complete(self, request: MemoryRequest, now: int) -> None:
        """``request`` returned its data; finalise and file the span."""
        tid = request.thread_id
        self.t_shared[tid] += now - request.arrival
        self.completed_interference[tid] += request.interference
        self.requests_completed += 1
        if not self.record_intervals:
            return
        span = self._open.pop(request.request_id, None)
        if span is not None:
            span.completion = now
            if self.keep_spans:
                self.spans.append(span)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def all_spans(self) -> List[RequestSpan]:
        """Completed spans plus those still open at the horizon.

        The grant-rule totals include delays charged to requests that
        never completed within the run, so reconciliation against the
        matrix must see open spans too.
        """
        return self.spans + list(self._open.values())

    # ------------------------------------------------------------------
    # service-side decomposition
    # ------------------------------------------------------------------

    def _service_intervals(self, span: RequestSpan, access,
                           completion: int, now: int) -> None:
        """Tile [grant, completion) with cause-tagged intervals.

        Boundaries come straight from the access's timing breakdown, so
        the tiling is exact under both the Table-3 model and detailed
        timings (tRAS/tRC/tFAW/refresh only shift the boundaries, never
        reorder them).
        """
        tid = span.thread_id
        append = span._intervals.append
        activate = access.activate_time
        prep_done = access.prep_done
        data_start = access.data_start
        data_end = access.data_end
        if activate is not None:
            if activate > now:
                if access.kind == "conflict":
                    culprit = (access.row_blocker
                               if access.row_blocker is not None else tid)
                    append((now, activate, culprit, CAUSE_ROW, False))
                else:
                    # a "closed" activate delayed by channel-level
                    # bounds (tRRD/tFAW/refresh): self-charged service
                    append((now, activate, tid, CAUSE_SERVICE, False))
            if prep_done > activate:
                append((activate, prep_done, tid, CAUSE_SERVICE, False))
        elif prep_done > now:
            # row hit shifted by a refresh window (detailed timings)
            append((now, prep_done, tid, CAUSE_SERVICE, False))
        if data_start > prep_done:
            culprit = (access.bus_blocker
                       if access.bus_blocker is not None else tid)
            append((prep_done, data_start, culprit, CAUSE_BUS, False))
        append((data_start, data_end, tid, CAUSE_SERVICE, False))
        if completion > data_end:
            append((data_end, completion, tid, CAUSE_SERVICE, False))


def attach_spans(system, collector: Optional[SpanCollector] = None
                 ) -> SpanCollector:
    """Attach a (full, by default) collector to ``system`` before its run."""
    return system.attach(collector or SpanCollector())
