"""Runtime invariant oracle — checks a live simulation against its model.

The oracle attaches to one :class:`repro.sim.System` *before* ``run()``
and verifies, request by request, that the simulation obeys the
guarantees the rest of the repo silently assumes:

* **Request conservation** — every request that enters a controller
  queue is scheduled exactly once, and every scheduled request either
  completes at its stamped completion cycle or is still in flight at
  the horizon.  Nothing leaks, nothing is serviced twice.
* **Bank timing legality** — at most one request in service per bank
  (service intervals never overlap); service occupancy matches the
  Table-3 service-time model exactly (hit / closed / conflict =
  burst / tRCD+burst / tRP+tRCD+burst bank cycles, 200/300/400-class
  round trips with the fixed overhead); at most one burst on a
  channel's data bus at a time.
* **Row-buffer state-machine consistency** — the oracle replays its
  own shadow row-buffer per bank and requires every access's
  hit/closed/conflict classification to match.
* **Bounded starvation** — optionally, no request (queued or serviced)
  may wait longer than ``starvation_cap`` cycles.
* **Span legality** — when the run carries a full
  :class:`repro.obs.spans.SpanCollector`, every completed request span
  must tile ``[arrival, completion)`` exactly with disjoint,
  contiguous wait intervals, and every culprit tag must refer to a
  request the oracle actually saw in service: a ``queue`` wait names
  the grant occupying the bank over exactly that interval, a ``bus``
  wait names the burst whose data occupied the channel until the wait
  ended, and a ``row`` wait names a thread that had been serviced at
  that bank earlier.
* **Decision-record legality** — when the run carries a
  :class:`repro.explain.ExplainCollector`, every grant must produce
  exactly one decision record, the record's winner must be the request
  actually granted, and the recorded candidate set must match the bank
  queue's occupancy at select time; at the end of the run the record
  count must equal the system's grant counter.
* **Policy invariants** — the selected request must maximise the
  scheduler's own priority tuple over the queue (for every scheduler,
  the one-pass ``select`` overrides included); TCM must never service a
  bandwidth-cluster demand request while a latency-cluster demand
  request waits at the same bank; ATLAS must service starving requests
  first.

The oracle is a run observer (:mod:`repro.sim.observer`) named
``oracle``, attached with :meth:`~repro.sim.system.System.attach`, plus
a tracer sink for the stream checks.  Each check runs at the hook that
fires where it looks: the arrival ledger at ``on_arrival``; queue
membership, the policy and starvation checks and the explain candidate
snapshot at ``on_decision``, while the queue still holds the winner;
service timing, the row-state shadow and the decision-record checks at
``on_grant``; the write path at ``on_write``; completion at
``on_complete``.  Nothing is wrapped, so a checked run takes the same
loop as an unchecked one (the fused loop, unless detailed timings force
the dispatch loop).  A system without an oracle pays only the
``Channel.enqueued_writes`` count the write ledger reads.

Usage::

    system = System(workload, make_scheduler("tcm"), cfg, seed=0)
    oracle = attach_oracle(system)
    result = system.run()
    report = oracle.finish(result)   # raises InvariantViolation on drift
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler
from repro.sim.observer import Observer, find_observer
from repro.telemetry.sinks import Sink
from repro.telemetry.tracer import Tracer


class InvariantViolation(AssertionError):
    """A runtime invariant did not hold."""


@dataclass(frozen=True)
class OracleConfig:
    """How the oracle reacts; every check is always on.

    ``starvation_cap`` bounds the queueing delay of any request; the
    default (None) disables the check because strict-priority policies
    (``static``) legitimately starve deprioritised threads for as long
    as high-priority traffic lasts.  The span and decision-record
    checks run when the run carries a span collector or an explain
    collector.
    """

    starvation_cap: Optional[int] = None
    #: raise at the first violation (default) or collect them all into
    #: the report for post-mortem inspection.
    raise_on_violation: bool = True


@dataclass
class OracleReport:
    """Outcome of one oracle-checked run."""

    scheduler: str = ""
    workload: str = ""
    #: number of checks evaluated, per category
    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        cats = ", ".join(
            f"{name}={count}" for name, count in sorted(self.checks.items())
        )
        return (
            f"oracle[{self.scheduler}/{self.workload}] {status} "
            f"({self.total_checks} checks: {cats})"
        )


class _OracleSink(Sink):
    """Telemetry sink feeding the event stream into the oracle."""

    def __init__(self, oracle: "InvariantOracle"):
        self._oracle = oracle

    def write(self, event: dict) -> None:
        self._oracle.check_event(event)

    def close(self) -> None:  # pragma: no cover - nothing to flush
        pass


class _BankState:
    """The oracle's independent model of one bank."""

    __slots__ = ("busy_until", "open_row")

    def __init__(self) -> None:
        self.busy_until = 0
        self.open_row: Optional[int] = None


class InvariantOracle(Observer):
    """Checks one system's run against the invariants above.

    Build via :func:`attach_oracle`; do not construct directly unless
    you call :meth:`attach` yourself before the run starts.
    """

    name = "oracle"

    #: request lifecycle states
    _QUEUED, _SERVICED, _COMPLETED = "queued", "serviced", "completed"

    def __init__(self, system, config: Optional[OracleConfig] = None):
        self.system = system
        self.config = config or OracleConfig()
        self.report = OracleReport(
            scheduler=system.scheduler.name,
            workload=system.workload.name,
        )
        simcfg = system.config
        self._timings = simcfg.timings
        # independent shadow state, never shared with the simulator
        self._banks: Dict[Tuple[int, int], _BankState] = {
            (ch, b): _BankState()
            for ch in range(simcfg.num_channels)
            for b in range(simcfg.banks_per_channel)
        }
        self._bus_free: List[int] = [0] * simcfg.num_channels
        # request ledger: id -> (state, request)
        self._ledger: Dict[int, Tuple[str, MemoryRequest]] = {}
        self._write_services = 0
        self._serviced_reads = 0
        # span-legality evidence: what was *actually* in service.
        # services: (ch, bank) -> {occupancy end: (grant cycle, thread)}
        # (bank occupancies never share an end cycle: each grant needs
        # an idle bank, so ends are strictly increasing per bank);
        # earliest_service: (ch, bank) -> {thread: earliest occupancy end}
        # (evidence for row-blame: the culprit used the bank earlier);
        # bus: channel -> {burst end: thread} (bursts serialise, so
        # data ends are strictly increasing per channel too)
        self._services: Dict[Tuple[int, int],
                             Dict[int, Tuple[int, int]]] = {}
        self._earliest_service: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._bus_bursts: Dict[int, Dict[int, int]] = {}
        self._kind_counts = {"hit": 0, "closed": 0, "conflict": 0}
        self._last_event_ts = 0
        self._last_quantum_index: Optional[int] = None
        self._sink: Optional[_OracleSink] = None
        self._created_tracer = False
        # the run's explain collector (found at begin), the records it
        # had produced by the previous grant, and the queue occupancy
        # at this grant's select
        self._explain = None
        self._records_seen = 0
        self._candidates: Set[int] = set()

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------

    def _count(self, category: str) -> None:
        checks = self.report.checks
        checks[category] = checks.get(category, 0) + 1

    def _violate(self, category: str, message: str) -> None:
        text = f"[{category}] {message}"
        self.report.violations.append(text)
        if self.config.raise_on_violation:
            raise InvariantViolation(text)

    def _expect(self, condition: bool, category: str, message: str) -> None:
        self._count(category)
        if not condition:
            self._violate(category, message)

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self) -> "InvariantOracle":
        """Attach to the system and its event stream (creating a tracer
        if the run is otherwise untraced); must run before
        ``system.run()``."""
        system = self.system
        system.attach(self)
        self._sink = _OracleSink(self)
        tracer = system._tracer
        if tracer is None:
            self._created_tracer = True
            system._tracer = Tracer([self._sink])
        else:
            self._created_tracer = False
            tracer.add_sink(self._sink)
        return self

    def detach(self) -> None:
        """Remove the observer and the telemetry sink."""
        system = self.system
        if self in system.observers:
            system.detach(self)
        tracer = system._tracer
        if tracer is not None and self._sink in tracer.sinks:
            tracer.sinks.remove(self._sink)
            if self._created_tracer and not tracer.sinks:
                system._tracer = None
        self._sink = None

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------

    def begin(self, system) -> None:
        from repro.explain.collector import ExplainCollector

        self._explain = find_observer(system, ExplainCollector)

    def on_arrival(self, request: MemoryRequest, now: int) -> None:
        self._expect(
            request.request_id not in self._ledger,
            "conservation",
            f"{request!r} enqueued twice",
        )
        self._ledger[request.request_id] = (self._QUEUED, request)

    def on_decision(self, channel, bank_id: int, request: MemoryRequest,
                    now: int) -> None:
        self._check_policy(self.system.scheduler, channel, bank_id, now,
                           request)
        entry = self._ledger.get(request.request_id)
        self._expect(
            entry is not None and entry[0] == self._QUEUED,
            "conservation",
            f"{request!r} serviced but "
            f"{'never arrived' if entry is None else entry[0]}",
        )
        self._expect(
            request in channel.queues[request.bank_id],
            "conservation",
            f"{request!r} serviced while absent from its queue",
        )
        self._ledger[request.request_id] = (self._SERVICED, request)
        self._check_starvation(request, now)
        if self._explain is not None:
            # the record's candidate set must be exactly this occupancy
            self._candidates = {r.request_id for r in channel.queues[bank_id]}

    def on_grant(self, request: MemoryRequest, waiting, access,
                 completion: int, now: int) -> None:
        self._serviced_reads += 1
        self._service_checks(request, now, access)
        self._expect(
            completion == access.data_end + self._timings.fixed_overhead,
            "timing",
            f"completion {completion} != data end {access.data_end}"
            f" + fixed overhead {self._timings.fixed_overhead}",
        )
        if self._explain is not None:
            self._check_record(request, now)

    def on_write(self, request: MemoryRequest, access, now: int) -> None:
        self._write_services += 1
        self._check_starvation(request, now)
        self._service_checks(request, now, access)

    def on_complete(self, request: MemoryRequest, now: int) -> None:
        entry = self._ledger.get(request.request_id)
        self._expect(
            entry is not None and entry[0] == self._SERVICED,
            "conservation",
            f"{request!r} completed but "
            f"{'never arrived' if entry is None else entry[0]}",
        )
        self._expect(
            request.completion == now,
            "conservation",
            f"{request!r} completed at {now}, stamped "
            f"{request.completion}",
        )
        self._ledger[request.request_id] = (self._COMPLETED, request)

    # ------------------------------------------------------------------
    # service checks (read and write paths)
    # ------------------------------------------------------------------

    def _check_starvation(self, request: MemoryRequest, now: int) -> None:
        cap = self.config.starvation_cap
        if cap is not None:
            waited = now - request.arrival
            self._expect(
                waited <= cap,
                "starvation",
                f"{request!r} waited {waited} cycles for service "
                f"(cap {cap})",
            )

    def _service_checks(self, request: MemoryRequest, now: int,
                        access) -> None:
        """Timing/row-state checks shared by the read and write paths."""
        t = self._timings
        kind = access.kind
        data_start = access.data_start
        data_end = access.data_end
        channel_id = request.channel_id
        self._kind_counts[kind] += 1
        state = self._banks[(channel_id, request.bank_id)]
        # one request in service per bank: intervals may not overlap
        self._expect(
            now >= state.busy_until,
            "timing",
            f"bank ch{channel_id}/b{request.bank_id} double-booked: "
            f"service at {now} overlaps busy-until {state.busy_until}",
        )
        # one burst on the channel data bus at a time
        bus_free = self._bus_free[channel_id]
        self._expect(
            data_start >= bus_free,
            "timing",
            f"channel {channel_id} bus double-booked: burst at "
            f"{data_start} before bus free {bus_free}",
        )
        self._expect(
            data_end == data_start + t.burst,
            "timing",
            f"burst length {data_end - data_start} != {t.burst}",
        )
        if not t.detailed:
            # Table-3 service-time model, exactly: the burst starts
            # the moment the row is ready and the bus is free.
            prep = {
                "hit": 0,
                "closed": t.t_rcd,
                "conflict": t.t_rp + t.t_rcd,
            }[kind]
            expected_start = max(now + prep, bus_free)
            self._expect(
                data_start == expected_start,
                "timing",
                f"{kind} access at {now}: burst starts {data_start}, "
                f"expected {expected_start} "
                f"(prep {prep}, bus free {bus_free})",
            )
        else:
            # detailed timings add tRAS/tRC/tRRD/tFAW/refresh waits
            # that can only push the burst later, never earlier
            self._expect(
                data_start >= now,
                "timing",
                f"burst at {data_start} before service start {now}",
            )
        expected = (
            "closed" if state.open_row is None
            else ("hit" if state.open_row == request.row else "conflict")
        )
        self._expect(
            kind == expected,
            "row_state",
            f"access to ch{channel_id}/b{request.bank_id} row "
            f"{request.row} classified {kind!r}, shadow state says "
            f"{expected!r} (open row {state.open_row})",
        )
        # advance the shadow model
        state.busy_until = data_end
        state.open_row = (
            None if t.page_policy == "closed" else request.row
        )
        self._bus_free[channel_id] = data_end
        key = (channel_id, request.bank_id)
        tid = request.thread_id
        self._services.setdefault(key, {})[data_end] = (now, tid)
        earliest = self._earliest_service.setdefault(key, {})
        if tid not in earliest:
            earliest[tid] = data_end
        self._bus_bursts.setdefault(channel_id, {})[data_end] = tid

    # ------------------------------------------------------------------
    # policy invariants (select-time)
    # ------------------------------------------------------------------

    def _check_policy(self, scheduler, channel, bank_id: int, now: int,
                      chosen: MemoryRequest) -> None:
        queue = channel.queues[bank_id]
        # the chosen request must maximise the scheduler's own demand
        # key, re-evaluated by the base definition (priority() is
        # pure), never by the policy's override, which fcfs, frfcfs,
        # tcm, atlas, parbs and stfm keep for speed; a chosen request
        # missing from the queue is the conservation check's finding
        # (``on_decision``)
        keys = Scheduler.demand_keys(scheduler, channel, bank_id, now)
        best = max(keys)
        for request, key in zip(queue, keys):
            if request is chosen:
                self._expect(
                    key == best,
                    "policy",
                    f"{scheduler.name} chose {chosen!r} with priority "
                    f"{key}, but a queued request has {best}",
                )
                break
        self._check_tcm(scheduler, queue, chosen)
        self._check_atlas(scheduler, queue, chosen, now)

    def _check_tcm(self, scheduler, queue, chosen: MemoryRequest) -> None:
        """TCM: latency-cluster demand beats bandwidth-cluster demand."""
        clustering = getattr(scheduler, "clustering", None)
        if clustering is None or chosen.is_prefetch:
            return
        latency = set(clustering.latency_cluster)
        if chosen.thread_id not in set(clustering.bandwidth_cluster):
            return
        waiting_latency = [
            r for r in queue
            if r is not chosen
            and not r.is_prefetch
            and r.thread_id in latency
        ]
        self._expect(
            not waiting_latency,
            "policy",
            f"TCM serviced bandwidth-cluster {chosen!r} while "
            f"latency-cluster demand {waiting_latency[0]!r} waited"
            if waiting_latency else "",
        )

    def _check_atlas(self, scheduler, queue, chosen: MemoryRequest,
                     now: int) -> None:
        """ATLAS: requests past the starvation threshold go first."""
        params = getattr(scheduler, "params", None)
        threshold = getattr(params, "starvation_threshold", None)
        if threshold is None or not hasattr(scheduler, "_attained"):
            return
        if chosen.is_prefetch or (now - chosen.arrival) > threshold:
            return
        starving = [
            r for r in queue
            if r is not chosen
            and not r.is_prefetch
            and (now - r.arrival) > threshold
        ]
        self._expect(
            not starving,
            "policy",
            f"ATLAS serviced fresh {chosen!r} while starving "
            f"{starving[0]!r} waited" if starving else "",
        )

    # ------------------------------------------------------------------
    # explain decision records (grant-time + end-of-run)
    # ------------------------------------------------------------------

    def _check_record(self, request: MemoryRequest, now: int) -> None:
        """This grant's decision record, against the grant itself and
        the queue snapshot ``on_decision`` took."""
        collector = self._explain
        produced = collector.decisions_total - self._records_seen
        self._records_seen = collector.decisions_total
        self._expect(
            produced == 1,
            "decisions",
            f"grant at {now} produced {produced} decision records, "
            f"expected exactly 1",
        )
        record = collector.last_record
        self._expect(
            record is not None
            and record.winner_request_id == request.request_id,
            "decisions",
            f"decision record winner "
            f"{record.winner_request_id if record else None} != "
            f"granted request {request.request_id}",
        )
        recorded = (
            {c.request_id for c in record.candidates}
            if record is not None else set()
        )
        self._expect(
            recorded == self._candidates,
            "decisions",
            f"decision record candidates {sorted(recorded)} != bank "
            f"ch{request.channel_id}/b{request.bank_id} occupancy "
            f"{sorted(self._candidates)}",
        )

    def _finish_decisions(self) -> None:
        collector = self._explain
        if collector is None:
            return
        self._expect(
            collector.decisions_total == self.system.sched_decisions,
            "decisions",
            f"explain recorded {collector.decisions_total} decisions, "
            f"system granted {self.system.sched_decisions}",
        )

    # ------------------------------------------------------------------
    # span legality (end-of-run, against the oracle's own service log)
    # ------------------------------------------------------------------

    def _finish_spans(self) -> None:
        """Validate every completed request span the run collected."""
        from repro.obs.spans import SpanCollector

        collector = find_observer(self.system, SpanCollector)
        if collector is None:
            return
        for span in collector.iter_spans(include_open=False):
            self._check_span(span)

    def _check_span(self, span) -> None:
        from repro.obs.spans import CAUSE_BUS, CAUSE_QUEUE, CAUSE_ROW

        # intervals, in recorded order, must chain without gap or
        # overlap from arrival to completion
        cursor = span.arrival
        tiled = True
        for interval in span.intervals:
            if interval.start != cursor or interval.end <= interval.start:
                tiled = False
                break
            cursor = interval.end
        self._expect(
            tiled and cursor == span.completion,
            "spans",
            f"{span!r} intervals do not tile [arrival, completion): "
            f"chain broke at {cursor} "
            f"({[tuple(i) for i in span.intervals]})",
        )
        total = sum(i.end - i.start for i in span.intervals)
        self._expect(
            total == span.latency,
            "spans",
            f"{span!r} interval cycles {total} != latency {span.latency}",
        )
        key = (span.channel_id, span.bank_id)
        services = self._services.get(key, {})
        tid = span.thread_id
        # the span's own grant must be a service the oracle witnessed
        own = services.get(span.completion - self._timings.fixed_overhead)
        self._expect(
            own is not None and own == (span.start_service, tid),
            "spans",
            f"{span!r} claims service at {span.start_service}, oracle "
            f"saw {own}",
        )
        earliest = self._earliest_service.get(key, {})
        bursts = self._bus_bursts.get(span.channel_id, {})
        for interval in span.intervals:
            culprit = interval.culprit
            if culprit == tid:
                continue
            if interval.cause == CAUSE_QUEUE:
                entry = services.get(interval.end)
                if interval.partial:
                    # the blocking grant predates the victim's arrival
                    legal = (
                        entry is not None
                        and entry[1] == culprit
                        and entry[0] <= interval.start
                    )
                else:
                    legal = entry == (interval.start, culprit)
                self._expect(
                    legal,
                    "spans",
                    f"{span!r} blames t{culprit} for queue wait "
                    f"[{interval.start}, {interval.end}), but the bank's "
                    f"service there was {entry}",
                )
            elif interval.cause == CAUSE_BUS:
                self._expect(
                    bursts.get(interval.end) == culprit,
                    "spans",
                    f"{span!r} blames t{culprit} for bus wait ending "
                    f"{interval.end}, but that burst belonged to "
                    f"t{bursts.get(interval.end)}",
                )
            elif interval.cause == CAUSE_ROW:
                first = earliest.get(culprit)
                self._expect(
                    first is not None and first <= interval.start,
                    "spans",
                    f"{span!r} blames t{culprit} for a row conflict at "
                    f"{interval.start}, but t{culprit} was never "
                    f"serviced at that bank before then",
                )

    # ------------------------------------------------------------------
    # telemetry event stream
    # ------------------------------------------------------------------

    def check_event(self, event: dict) -> None:
        """Stream-level checks over the telemetry events of the run
        (fed by the oracle's tracer sink)."""
        ts = event.get("ts", 0)
        self._expect(
            ts >= self._last_event_ts,
            "stream",
            f"event {event.get('ev')!r} at ts {ts} after ts "
            f"{self._last_event_ts}",
        )
        self._last_event_ts = ts
        if event.get("ev") == "quantum":
            index = event.get("index")
            expected = (
                0 if self._last_quantum_index is None
                else self._last_quantum_index + 1
            )
            self._expect(
                index == expected,
                "stream",
                f"quantum index {index}, expected {expected}",
            )
            self._last_quantum_index = index
            n = self.system.workload.num_threads
            self._expect(
                all(
                    len(event.get(k, ())) == n
                    for k in ("mpki", "bw", "blp", "rbl")
                ),
                "stream",
                f"quantum metrics not sized to {n} threads",
            )

    # ------------------------------------------------------------------
    # end-of-run accounting
    # ------------------------------------------------------------------

    def finish(self, result=None) -> OracleReport:
        """Run end-of-run conservation checks and return the report.

        Raises :class:`InvariantViolation` (unless configured to
        collect) if any check failed during the run or at the end.
        ``result`` is the :class:`~repro.sim.results.RunResult`; when
        passed, its aggregate counters are cross-checked against the
        oracle's independent ledger.
        """
        system = self.system
        horizon = system.now
        states = {self._QUEUED: 0, self._SERVICED: 0, self._COMPLETED: 0}
        for state, request in self._ledger.values():
            states[state] += 1
            if state == self._QUEUED:
                self._expect(
                    any(
                        request in ch.queues[request.bank_id]
                        for ch in system.channels
                        if ch.channel_id == request.channel_id
                    ),
                    "conservation",
                    f"{request!r} neither serviced nor still queued "
                    "at run end (leaked)",
                )
            elif state == self._SERVICED:
                # in flight at the horizon: its data must be due
                # strictly after the run ended, else the completion
                # event was lost
                self._expect(
                    request.completion is not None
                    and request.completion > horizon,
                    "conservation",
                    f"{request!r} serviced (completion "
                    f"{request.completion}) but never completed "
                    f"by horizon {horizon}",
                )
        queued_now = sum(ch.pending_requests() for ch in system.channels)
        self._expect(
            states[self._QUEUED] == queued_now,
            "conservation",
            f"ledger says {states[self._QUEUED]} queued, channels "
            f"hold {queued_now}",
        )
        serviced = sum(ch.serviced_requests for ch in system.channels)
        self._expect(
            serviced == self._serviced_reads,
            "conservation",
            f"channels serviced {serviced}, oracle saw "
            f"{self._serviced_reads}",
        )
        # write-path conservation (counts; ids are not tracked because
        # a full buffer legally drops the oldest write)
        arrivals = sum(ch.enqueued_writes for ch in system.channels)
        buffered = sum(len(ch.write_buffer) for ch in system.channels)
        dropped = sum(ch.dropped_writes for ch in system.channels)
        self._expect(
            arrivals == self._write_services + buffered + dropped,
            "conservation",
            f"write ledger: {arrivals} buffered != "
            f"{self._write_services} serviced + {buffered} pending "
            f"+ {dropped} dropped",
        )
        if result is not None:
            self._expect(
                result.total_requests == self._serviced_reads,
                "conservation",
                f"result.total_requests {result.total_requests} != "
                f"oracle count {self._serviced_reads}",
            )
            for kind, attr in (
                ("hit", "row_hits"),
                ("conflict", "row_conflicts"),
                ("closed", "row_closed"),
            ):
                # bank counters (what the result aggregates) tally read
                # and write accesses alike, as does the oracle
                self._expect(
                    getattr(result, attr) == self._kind_counts[kind],
                    "conservation",
                    f"result.{attr} {getattr(result, attr)} != oracle "
                    f"{kind} count {self._kind_counts[kind]}",
                )
        self._finish_spans()
        self._finish_decisions()
        if self.config.starvation_cap is not None:
            for ch in system.channels:
                for queue in ch.queues:
                    for request in queue:
                        waited = horizon - request.arrival
                        self._expect(
                            waited <= self.config.starvation_cap,
                            "starvation",
                            f"{request!r} still queued after waiting "
                            f"{waited} cycles "
                            f"(cap {self.config.starvation_cap})",
                        )
        return self.report


def attach_oracle(system, config: Optional[OracleConfig] = None
                  ) -> InvariantOracle:
    """Attach a fresh :class:`InvariantOracle` to ``system`` and return it."""
    return InvariantOracle(system, config).attach()


def checked_run(
    workload,
    scheduler_name: str,
    config=None,
    seed: int = 0,
    params=None,
    oracle_config: Optional[OracleConfig] = None,
    cycles: Optional[int] = None,
    spans: bool = False,
    explain: bool = False,
    shadows=(),
):
    """Run one oracle-checked simulation; returns (result, report).

    Raises :class:`InvariantViolation` if any invariant fails (unless
    ``oracle_config.raise_on_violation`` is False).  With ``spans`` a
    full :class:`repro.obs.spans.SpanCollector` is attached and every
    completed span is validated against the oracle's service log.  With
    ``explain`` an :class:`repro.explain.ExplainCollector` (carrying
    ``shadows``) is attached and every grant's decision record is
    cross-checked against the actual grant stream.
    """
    from repro.config import SimConfig
    from repro.schedulers import make_scheduler
    from repro.sim.system import System

    system = System(
        workload,
        make_scheduler(scheduler_name, params),
        config or SimConfig(),
        seed=seed,
    )
    if spans:
        from repro.obs.spans import attach_spans

        attach_spans(system)
    if explain:
        from repro.explain import attach_explain

        attach_explain(system, shadows=shadows)
    oracle = attach_oracle(system, oracle_config)
    result = system.run(cycles)
    report = oracle.finish(result)
    return result, report
