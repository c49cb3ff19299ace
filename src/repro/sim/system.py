"""The simulated system: cores + controllers + scheduler + meta-controller.

An event-driven executor advances the system from memory event to
memory event (episode issues, bank-service completions, request
completions, quantum boundaries, scheduler timers).  Between events,
cores compute and banks service requests; nothing else can change
scheduling state, so the event granularity loses no accuracy relative
to a per-cycle loop while running orders of magnitude faster.

:meth:`System.advance` drains the events through the fused loop of
:mod:`repro.sim.fused`, which serves plain, traced, sampled and observed
runs, with or without writes and prefetching.  The dispatch loop below
sends each event through the ``System`` methods instead.  It is the
parity reference, and it runs what the fused loop does not: detailed
DRAM timings, component subclasses, and every run a per-instance
wrapper watches (the end-to-end benchmark's traced run, fault
injection).  The two loops are bit-identical and fire the same hooks
at the same sites, so the invariant oracle and the self-profiler,
both observers, watch whichever loop runs.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimConfig
from repro.core.meta import MetaController
from repro.core.monitor import BehaviorMonitor
from repro.cpu.prefetch import PREFETCH_HIT_LATENCY, StreamPrefetcher
from repro.cpu.thread import ThreadModel
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler
from repro.sim.fused import advance_fused, fusable
from repro.sim.observer import HOOKS, Observer, overridden_hooks
from repro.workloads.mixes import Workload

def _benchmark_streams(workload: Workload) -> List[int]:
    """Per-thread rng stream ids: (benchmark identity, occurrence index).

    A benchmark instance behaves identically whichever core it lands
    on; duplicated instances of the same benchmark within a workload
    get distinct streams so they decorrelate.
    """
    import zlib

    seen: Dict[str, int] = {}
    streams = []
    for name in workload.benchmark_names:
        occurrence = seen.get(name, 0)
        seen[name] = occurrence + 1
        streams.append((zlib.crc32(name.encode()) << 4) + occurrence)
    return streams


# event kinds
_EV_ISSUE = 0        # a thread's next miss reached its compute gate
_EV_BANK_FREE = 1    # a bank finished its burst; schedule next request
_EV_DONE = 2         # a request's data arrived at the core
_EV_QUANTUM = 3      # quantum boundary
_EV_TIMER = 4        # scheduler-requested timer
_EV_PHIT = 5         # a demand miss hit the prefetch buffer
_EV_SAMPLE = 6       # telemetry epoch-sampler tick

#: Sample events sort after every other event at the same cycle (their
#: heap sequence is offset far beyond any reachable ordinary sequence),
#: so an epoch sample aligned with a quantum boundary observes the
#: *post*-quantum state (fresh clustering, fresh ranks).
_SAMPLE_SEQ_BASE = 1 << 60


class System:
    """One simulated CMP + memory subsystem executing one workload."""

    def __init__(
        self,
        workload: Workload,
        scheduler: Scheduler,
        config: Optional[SimConfig] = None,
        seed: Optional[int] = None,
        telemetry=None,
        observers: Sequence[Observer] = (),
    ):
        self.config = config or SimConfig()
        self.workload = workload
        self.seed = self.config.seed if seed is None else seed
        weights = workload.weights or tuple([1] * workload.num_threads)
        self.threads: List[ThreadModel] = [
            ThreadModel(
                tid,
                spec,
                self.config,
                self.seed,
                weight=weights[tid],
                stream=stream,
            )
            for tid, (spec, stream) in enumerate(
                zip(workload.specs, _benchmark_streams(workload))
            )
        ]
        self.channels: List[Channel] = [
            Channel(ch, self.config) for ch in range(self.config.num_channels)
        ]
        self.monitor = BehaviorMonitor(self.config, workload.num_threads)
        self.meta = MetaController(self.monitor)
        self.scheduler = scheduler
        self.now = 0
        self._events: List[Tuple[int, int, int, object, int]] = []
        self._seq = 0
        self._latency_sum: List[int] = [0] * workload.num_threads
        self._latency_count: List[int] = [0] * workload.num_threads
        self.quantum_count = 0
        #: per-quantum IPC of every thread (one tuple per quantum)
        self.ipc_timeline: List[Tuple[float, ...]] = []
        self._wb_rng = np.random.default_rng((self.seed, 0x3B))
        #: attached observers (repro.sim.observer), in attach order; the
        #: per-hook tuples the event loop calls are built at start_run
        self.observers: List[Observer] = []
        self._started = False
        #: True while an advance() call runs (detach is refused then)
        self._advancing = False
        self._bind_hooks()
        # telemetry: tracer/sampler are bound only when a Telemetry
        # bundle is passed, leaving one is-None branch per emit site
        # otherwise.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind(self)
        self._tracer = (
            telemetry.tracer
            if telemetry is not None
            and telemetry.tracer is not None
            and telemetry.tracer.enabled
            else None
        )
        self._sampler = telemetry.sampler if telemetry is not None else None
        self._sample_period = 0
        if self.config.prefetch_degree > 0:
            self.prefetchers: Optional[List[StreamPrefetcher]] = [
                StreamPrefetcher(self.config.prefetch_degree)
                for _ in range(workload.num_threads)
            ]
        else:
            self.prefetchers = None
        for observer in observers:
            self.attach(observer)
        scheduler.attach(self)

    @property
    def sched_decisions(self) -> int:
        """Scheduler decisions taken: the requests granted service, the
        sum of every channel's ``serviced_requests``."""
        return sum(channel.serviced_requests for channel in self.channels)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    def attach(self, observer: Observer) -> Observer:
        """Attach ``observer`` (see :mod:`repro.sim.observer`); returns it.

        Only before the run: the hook tuples are built at start_run.
        """
        if self._started:
            raise RuntimeError("attach observers before system.run()")
        if observer in self.observers:
            raise RuntimeError(f"{observer.name} observer already attached")
        self.observers.append(observer)
        return observer

    def detach(self, observer: Observer) -> None:
        """Remove ``observer`` between :meth:`advance` calls.

        Its hooks stop firing from the next ``advance`` call on, on
        either loop (the fused loop reads the hook tuples once per
        call).  A detach while ``advance`` runs (from a hook) raises.
        """
        if self._advancing:
            raise RuntimeError(
                "detach observers between advance() calls, not from a hook"
            )
        self.observers.remove(observer)
        if self._started:
            self._bind_hooks()

    def _bind_hooks(self) -> None:
        """One tuple per hook (``self._on_grant`` ...) of the observers'
        bound methods, for the hooks their classes override."""
        bound = {hook: [] for hook in HOOKS}
        for observer in self.observers:
            for hook in overridden_hooks(observer):
                bound[hook].append(getattr(observer, hook))
        for hook, methods in bound.items():
            setattr(self, "_" + hook, tuple(methods))

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def _push_sample(self, time: int) -> None:
        """Queue an epoch-sampler tick sorting after all peers at ``time``."""
        self._seq += 1
        heapq.heappush(
            self._events,
            (time, _SAMPLE_SEQ_BASE + self._seq, _EV_SAMPLE, None, 0),
        )

    def _take_sample(self) -> None:
        sample = self._sampler.sample(self, self.now)
        if self._tracer is not None:
            self._tracer.emit(
                "epoch", self.now, cycle=self.now, threads=sample.threads
            )
        self._push_sample(self.now + self._sample_period)

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def _push(self, time: int, kind: int, payload: object = None, aux: int = 0):
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, kind, payload, aux))

    def schedule_timer(self, time: int, key: str) -> None:
        """Schedulers use this to receive ``on_timer`` callbacks."""
        self._push(time, _EV_TIMER, key)

    # ------------------------------------------------------------------
    # simulation actions
    # ------------------------------------------------------------------

    def _issue_miss(self, tid: int) -> None:
        """The thread's compute gate fired: issue its next miss if possible."""
        thread = self.threads[tid]
        location = thread.try_issue(self.now)
        if location is None:
            # Window full: the retry happens at the next completion.
            return
        channel_id, bank_id, row = location
        if self.prefetchers is not None:
            prefetcher = self.prefetchers[tid]
            # keep the prefetcher topped up whichever path the miss takes
            self._inject_prefetches(tid, prefetcher.observe(location))
            if prefetcher.consume(location):
                # the block was prefetched: completes at on-chip latency
                self._push(
                    self.now + PREFETCH_HIT_LATENCY, _EV_PHIT, tid,
                    thread.issued,
                )
                self._push(self.now + thread.issue_gap(), _EV_ISSUE, tid)
                return
            if prefetcher.try_merge(location, thread.issued):
                # merged into an in-flight prefetch (MSHR merge): no new
                # DRAM request; completes when the prefetch fills
                self._push(self.now + thread.issue_gap(), _EV_ISSUE, tid)
                return
        request = MemoryRequest(
            thread_id=tid,
            channel_id=channel_id,
            bank_id=bank_id,
            row=row,
            arrival=self.now,
            episode_id=thread.issued,
        )
        self.channels[channel_id].enqueue(request)
        self.monitor.on_request_arrival(request, self.now)
        self.scheduler.on_request_arrival(request, self.now)
        if self._on_arrival:
            for hook in self._on_arrival:
                hook(request, self.now)
        if (
            self.config.model_writes
            and self._wb_rng.random() < self.config.writeback_ratio
        ):
            # the miss evicts a dirty line: buffer its writeback (same
            # bank as the fill; the evicted line's row is unrelated)
            writeback = MemoryRequest(
                thread_id=tid,
                channel_id=channel_id,
                bank_id=bank_id,
                row=int(self._wb_rng.integers(self.config.num_rows)),
                arrival=self.now,
                is_write=True,
            )
            self.channels[channel_id].enqueue_write(writeback)
        self._try_schedule(channel_id, bank_id)
        self._push(self.now + thread.issue_gap(), _EV_ISSUE, tid)

    def _inject_prefetches(self, tid: int, locations) -> None:
        """Enqueue prefetch requests emitted by a thread's prefetcher."""
        for p_channel, p_bank, p_row in locations:
            prefetch = MemoryRequest(
                thread_id=tid,
                channel_id=p_channel,
                bank_id=p_bank,
                row=p_row,
                arrival=self.now,
                is_prefetch=True,
            )
            self.channels[p_channel].enqueue(prefetch)
            self.scheduler.on_request_arrival(prefetch, self.now)
            if self._on_arrival:
                for hook in self._on_arrival:
                    hook(prefetch, self.now)
            self._try_schedule(p_channel, p_bank)

    def _try_schedule(self, channel_id: int, bank_id: int) -> None:
        channel = self.channels[channel_id]
        bank = channel.banks[bank_id]
        if not bank.is_idle(self.now):
            return
        if not channel.queues[bank_id]:
            # reads first (paper Table 3); drain a write when the bank
            # would otherwise idle
            if self.config.model_writes:
                write = channel.next_write_for(bank_id)
                if write is not None:
                    access = channel.start_write_service(write, self.now)
                    if self._tracer is not None:
                        self._tracer.emit(
                            "dram_cmd", self.now,
                            ch=channel_id, bank=bank_id, row=write.row,
                            tid=write.thread_id, kind=access.kind,
                            start=self.now, end=access.data_end, write=True,
                        )
                    if self._on_write:
                        for hook in self._on_write:
                            hook(write, access, self.now)
                    self._push(
                        access.data_end, _EV_BANK_FREE, channel_id, bank_id
                    )
            return
        queued = len(channel.queues[bank_id])
        request = self.scheduler.select(channel, bank_id, self.now)
        if self._on_decision:
            # before start_service: the candidate queue is still intact
            for hook in self._on_decision:
                hook(channel, bank_id, request, self.now)
        access, completion = channel.start_service(request, self.now)
        busy_cycles = access.data_end - self.now
        if self._tracer is not None:
            self._tracer.write_row("grant", (
                self.now, channel_id, bank_id, request.thread_id, queued,
                request.row, access.kind, access.data_end))
        self.monitor.on_request_service(request, busy_cycles)
        waiting = channel.queues[bank_id]
        self.scheduler.on_request_scheduled(
            request, waiting, busy_cycles, self.now
        )
        if self._on_grant:
            for hook in self._on_grant:
                hook(request, waiting, access, completion, self.now)
        self._push(access.data_end, _EV_BANK_FREE, channel_id, bank_id)
        self._push(completion, _EV_DONE, request)

    def _complete_request(self, request: MemoryRequest) -> None:
        tid = request.thread_id
        prefetch = request.is_prefetch
        if not prefetch:
            self.monitor.on_request_complete(request, self.now)
        self.scheduler.on_request_complete(request, self.now)
        if self._on_complete:
            for hook in self._on_complete:
                hook(request, self.now)
        if prefetch:
            # prefetch fills go to the prefetch buffer, waking any
            # demand misses that merged with this prefetch
            if self.prefetchers is not None:
                woken = self.prefetchers[tid].fill(
                    (request.channel_id, request.bank_id, request.row)
                )
                for issue_id in woken:
                    if self.threads[tid].on_request_completed(issue_id):
                        self._issue_miss(tid)
            return
        self._latency_sum[tid] += self.now - request.arrival
        self._latency_count[tid] += 1
        if self.threads[tid].on_request_completed(request.episode_id):
            # The window was stalled on this completion; the next miss's
            # compute is already done, so it issues immediately.
            self._issue_miss(tid)

    def _quantum_boundary(self) -> None:
        mpki = [t.stats.quantum_mpki() for t in self.threads]
        self.ipc_timeline.append(
            tuple(
                t.stats.quantum_instructions / self.config.quantum_cycles
                for t in self.threads
            )
        )
        snapshot = self.meta.end_quantum(mpki, self.now)
        if self._tracer is not None:
            self._tracer.emit(
                "quantum", self.now,
                index=snapshot.quantum_index,
                mpki=[m.mpki for m in snapshot.metrics],
                bw=[m.bw_usage for m in snapshot.metrics],
                blp=[m.blp for m in snapshot.metrics],
                rbl=[m.rbl for m in snapshot.metrics],
            )
        for thread in self.threads:
            thread.stats.reset_quantum()
        self.quantum_count += 1
        self.scheduler.on_quantum(snapshot, self.now)
        for hook in self._on_quantum:
            hook(snapshot, self.now)
        self._push(self.now + self.config.quantum_cycles, _EV_QUANTUM)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def start_run(self) -> None:
        """Prime the event queue and start the observers.

        First stage of :meth:`run`.  Callable at most once per system:
        the initial issue gaps consume RNG draws, so re-priming would
        change the simulated outcome.  Exposed separately so a run can
        be advanced checkpoint by checkpoint via :meth:`advance`: the
        golden check (:func:`repro.validate.goldens.run_golden_point`)
        and the bisector (:mod:`repro.diverge`) do.
        """
        if self._started:
            raise RuntimeError("System.start_run() called twice")
        self._started = True
        self._bind_hooks()
        for tid, thread in enumerate(self.threads):
            self._push(thread.issue_gap(), _EV_ISSUE, tid)
        self._push(self.config.quantum_cycles, _EV_QUANTUM)
        if self._tracer is not None:
            self._tracer.emit(
                "run_begin", self.now,
                workload=self.workload.name,
                scheduler=self.scheduler.name,
                seed=self.seed,
                threads=self.workload.num_threads,
            )
        if self._sampler is not None:
            self._sample_period = self._sampler.resolve_period(self)
            self._push_sample(self._sample_period)
        for hook in self._begin:
            hook(self)

    def advance(self, limit: int) -> None:
        """Dispatch every pending event with ``time <= limit``.

        Middle stage of :meth:`run`; resumable — repeated calls with
        increasing limits drain the run in windows, and the state after
        ``advance(a); advance(b)`` is bit-identical to ``advance(b)``
        (the loop condition is a pure time bound).

        The events drain through the fused loop unless
        :func:`repro.sim.fused.fusable` refuses it; then through the
        dispatch loop below, which sends each event through the methods
        a per-instance wrapper intercepts.  The two are bit-identical
        and fire the same observer hooks and tracer events.
        """
        self._advancing = True
        try:
            if fusable(self):
                advance_fused(self, limit)
            else:
                self._dispatch(limit)
        finally:
            self._advancing = False

    def _dispatch(self, limit: int) -> None:
        """The dispatch loop: each event through the ``System`` methods."""
        events = self._events
        on_event = self._on_event
        while events and events[0][0] <= limit:
            event = heapq.heappop(events)
            time, _seq, kind, payload, aux = event
            self.now = time
            if on_event:
                for hook in on_event:
                    hook(event)
            if kind == _EV_ISSUE:
                self._issue_miss(payload)
            elif kind == _EV_BANK_FREE:
                self._try_schedule(payload, aux)
            elif kind == _EV_DONE:
                self._complete_request(payload)
            elif kind == _EV_QUANTUM:
                self._quantum_boundary()
            elif kind == _EV_TIMER:
                # tuple keys are observer-owned (explain's shadows)
                if type(payload) is not tuple:
                    self.scheduler.on_timer(time, payload)
                for hook in self._on_timer:
                    hook(time, payload)
            elif kind == _EV_PHIT:
                if self.threads[payload].on_request_completed(aux):
                    self._issue_miss(payload)
            elif kind == _EV_SAMPLE:
                self._take_sample()

    def run(self, cycles: Optional[int] = None):
        """Simulate for ``cycles`` (default: config.run_cycles)."""
        horizon = cycles if cycles is not None else self.config.run_cycles
        self.start_run()
        self.advance(horizon)
        return self.finish_run(horizon)

    def finish_run(self, horizon: int):
        """Finalize threads and assemble the :class:`RunResult`.

        Last stage of :meth:`run`; call exactly once, after the final
        :meth:`advance` — finalization flushes residual instruction
        credit into the stats, so it is not idempotent.
        """
        from repro.sim.results import RunResult, ThreadResult

        self.now = horizon
        for thread in self.threads:
            thread.finalize(horizon)

        service_cycles = self.monitor.lifetime_service_cycles
        threads = tuple(
            ThreadResult(
                thread_id=tid,
                benchmark=thread.spec.name,
                instructions=thread.stats.instructions,
                misses=thread.stats.misses,
                ipc=thread.stats.ipc(horizon),
                mpki=thread.stats.lifetime_mpki(),
                blp=self.monitor.lifetime_blp(tid),
                rbl=self.monitor.lifetime_rbl(tid),
                service_cycles=service_cycles[tid],
                avg_latency=(
                    self._latency_sum[tid] / self._latency_count[tid]
                    if self._latency_count[tid]
                    else 0.0
                ),
            )
            for tid, thread in enumerate(self.threads)
        )
        row_hits = sum(b.row_hits for ch in self.channels for b in ch.banks)
        conflicts = sum(b.row_conflicts for ch in self.channels for b in ch.banks)
        closed = sum(b.row_closed for ch in self.channels for b in ch.banks)
        requests = self.sched_decisions
        if self._tracer is not None:
            self._tracer.emit(
                "run_end", horizon, requests=requests, row_hits=row_hits,
            )
        result = RunResult(
            scheduler=self.scheduler.name,
            workload=self.workload.name,
            cycles=horizon,
            threads=threads,
            total_requests=requests,
            row_hits=row_hits,
            row_conflicts=conflicts,
            row_closed=closed,
            quantum_count=self.quantum_count,
            ipc_timeline=tuple(self.ipc_timeline),
        )
        for hook in self._end:
            hook(self, horizon)
        return result
