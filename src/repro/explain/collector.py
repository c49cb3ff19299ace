"""The explain collector: per-grant forensics as a run observer.

``ExplainCollector`` is an observer (:mod:`repro.sim.observer`)
attached with :func:`attach_explain`; a run without one is
bit-identical to a run before this module existed.  Attached, the
collector:

* captures a :class:`~repro.explain.records.DecisionRecord` for every
  grant (candidate set, per-candidate priority decomposition, winner
  margin, tie-break provenance) — at the ``on_decision`` hook, which
  both event loops fire after ``select`` while the queue is intact.
  The ring keeps each grant as a raw tuple (the candidate requests and
  their priority tuples); :attr:`~ExplainCollector.records` and
  :attr:`~ExplainCollector.last_record` build the records on read;
* drives any number of :class:`~repro.explain.shadow.ShadowPolicy`
  instances through the same arrivals / grants / completions / quantum
  snapshots / timer ticks, asking each at every grant which request it
  would have granted, and aggregates policy×policy disagreement
  matrices plus per-thread would-have-been-granted deltas;
* keeps a starvation watch — oldest-pending-age per thread — emitting
  ``starvation`` threshold events on the run's tracer;
* tracks the cluster-flip timeline of the first clustering policy in
  sight (the primary TCM, else a TCM shadow).
"""

from __future__ import annotations

from collections import Counter, deque
from math import floor, log2
from typing import Dict, List, Optional, Sequence, Tuple

from repro.explain.records import (
    CandidateRecord,
    DecisionRecord,
    Margin,
    TIE_ONLY,
    TIE_PRIORITY,
    TIE_QUEUE_ORDER,
    margin_of,
)
from repro.explain.shadow import ShadowPolicy, make_shadow
from repro.schedulers.base import Scheduler
from repro.sim.observer import Observer, find_observer

#: Default pending-age (cycles) beyond which a thread counts as starving.
STARVATION_THRESHOLD = 100_000

#: Default decision-record retention (ring buffer); ``None`` keeps all.
KEEP_RECORDS = 4096


def _component_names(scheduler, width: int) -> Tuple[str, ...]:
    """Slot names for a priority tuple of ``width`` components.

    The policy's :data:`~repro.schedulers.base.Scheduler.\
    PRIORITY_COMPONENTS` when it matches the tuple width, positional
    ``slotN`` fallbacks otherwise (matching the base
    ``explain_components`` contract).
    """
    names = scheduler.PRIORITY_COMPONENTS
    if len(names) == width:
        return tuple(names)
    return tuple(f"slot{i}" for i in range(width))


def _relays(shadows, hook: str) -> List:
    """The shadows' bound ``hook`` methods, where a shadow's policy
    overrides the base scheduler's no-op."""
    return [
        getattr(shadow.scheduler, hook) for shadow in shadows
        if getattr(type(shadow.scheduler), hook) is not getattr(Scheduler, hook)
    ]


def _bucket(delta: float) -> int:
    """Power-of-two histogram bucket for a positive margin delta:
    ``floor(log2(delta)) + 1`` from 1 up, 0 below 1, -1 for none."""
    if delta >= 1:
        return floor(log2(delta)) + 1
    return 0 if delta > 0 else -1


class ExplainCollector(Observer):
    """Per-grant decision forensics and shadow-policy counterfactuals."""

    name = "explain"

    def __init__(
        self,
        shadows: Sequence = (),
        keep_records: Optional[int] = KEEP_RECORDS,
        starvation_threshold: int = STARVATION_THRESHOLD,
    ):
        self._shadow_specs = tuple(shadows)
        self.keep_records = keep_records
        self.starvation_threshold = starvation_threshold
        self.system = None
        self.shadows: List[ShadowPolicy] = []
        self._shadow_arrival: List = []
        self._shadow_scheduled: List = []
        self._shadow_complete: List = []
        self.labels: List[str] = []
        self.decisions_total = 0
        # the kept grants, oldest first: raw tuples (see on_decision)
        # until a read turns them into DecisionRecords in place
        self._ring = deque(maxlen=keep_records) \
            if keep_records is not None else []
        self._last = None
        self._scheduler = None
        self._tracer = None
        # aggregates (sized at attach)
        self.disagree: List[List[int]] = []
        self.actual_granted: List[int] = []
        self.decided_by: Counter = Counter()
        self.margin_hist: Dict[str, Counter] = {}
        self.ties = 0
        self.only_candidate = 0
        # starvation watch
        self.starvation_events: List[dict] = []
        self.max_pending_age: List[int] = []
        # per thread, the requests in arrival order; granted ones leave
        # from the front at each scan
        self._pending: List[deque] = []
        self._starving: List[bool] = []
        # the scan runs at most once per stride of cycles: crossings are
        # detected within ~0.4% of the threshold, not per grant
        self._starvation_stride = max(1, starvation_threshold // 256)
        self._starvation_due = self._starvation_stride - 1
        # candidate component names, cached per priority-tuple length
        self._prio_names: Dict[int, Tuple[str, ...]] = {}
        # cluster-flip timeline
        self.cluster_source: Optional[str] = None
        self.cluster_timeline: List[dict] = []
        self._cluster_prev: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, system) -> "ExplainCollector":
        """Attach to ``system`` before its run; builds and attaches shadows."""
        if find_observer(system, ExplainCollector) is not None:
            raise RuntimeError("system already carries an explain collector")
        system.attach(self)
        self.system = system
        n = system.workload.num_threads
        self.shadows = [
            make_shadow(system, spec, index)
            for index, spec in enumerate(self._shadow_specs)
        ]
        # the shadows' lifecycle hooks, bound once and only where a
        # policy overrides the base no-op
        self._shadow_arrival = _relays(self.shadows, "on_request_arrival")
        self._shadow_scheduled = _relays(self.shadows,
                                         "on_request_scheduled")
        self._shadow_complete = _relays(self.shadows, "on_request_complete")
        scheduler = self._scheduler = system.scheduler
        self._tracer = system._tracer
        # on_complete only relays, so with nothing to relay it is
        # switched off
        if not self._shadow_complete:
            self.on_complete = None
        self.labels = [scheduler.name] + [
            s.label for s in self.shadows
        ]
        k = len(self.labels)
        self.disagree = [[0] * k for _ in range(k)]
        self.actual_granted = [0] * n
        self.max_pending_age = [0] * n
        self._pending = [deque() for _ in range(n)]
        self._starving = [False] * n
        return self

    def detach(self) -> None:
        """Detach from the system (shadow timers still queued become
        harmless: the primary policy never sees tuple keys)."""
        if self.system is not None and self in self.system.observers:
            self.system.detach(self)

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------

    def on_arrival(self, request, now: int) -> None:
        for hook in self._shadow_arrival:
            hook(request, now)
        self._pending[request.thread_id].append(request)

    def on_decision(self, channel, bank_id: int, winner, now: int) -> None:
        """Score the candidates, relay to the shadows, ring a raw tuple.

        The queue still holds the winner.  The policy's ``demand_keys``
        scores the whole queue in one call: each candidate's key is the
        demand class bit + the priority tuple, as ``select`` compares
        them.  The ring keeps the candidate requests themselves — their
        ids, thread, arrival, row and class never change — with their
        keys and the open row of this instant, which is everything a
        record is built from: ``(now, winner, open_row, key)`` for an
        only candidate, else ``(now, winner, open_row, candidates,
        keys, component, delta, runner_up, picks, tied)``.  Richer
        per-policy detail (ATLAS attained service, STFM slowdown, TCM
        cluster) stays available through
        ``scheduler.explain_components`` — ``priority`` is pure, so
        re-deriving is exact.  With a tracer, the grant's ``explain``
        event is written here too.
        """
        queue = channel.queues[bank_id]
        open_row = channel.banks[bank_id].open_row
        scheduler = self._scheduler
        self.decisions_total += 1
        winner_tid = winner.thread_id
        self.actual_granted[winner_tid] += 1
        shadows = self.shadows
        tracer = self._tracer
        keys = scheduler.demand_keys(channel, bank_id, now)

        if len(keys) == 1:
            self.only_candidate += 1
            # every policy's select grants the only candidate (select is
            # a pure decision function), so the shadows need no asking
            for shadow in shadows:
                shadow.granted[winner_tid] += 1
                shadow.agreed += 1
            raw = (now, winner, open_row, keys[0])
        else:
            candidates = tuple(queue)
            position = candidates.index(winner)  # a request equals itself
            winner_key = keys[position]
            # the runner-up is the first maximal key among the others
            best_key = max(keys[:position] + keys[position + 1:])
            index = keys.index(best_key)
            if index == position:
                index = keys.index(best_key, position + 1)
            runner_up = candidates[index]
            component, delta = margin_of(winner_key, best_key,
                                         scheduler.PRIORITY_COMPONENTS)
            if component is None:
                self.ties += 1
            else:
                self.decided_by[component] += 1
                hist = self.margin_hist.get(component)
                if hist is None:
                    hist = self.margin_hist[component] = Counter()
                hist[_bucket(delta)] += 1
            # a winner strictly above the runner-up (the maximal other
            # key) is uniquely maximal, so the count is only scanned on
            # exact ties and on non-priority-maximal select overrides
            tied = 1 if delta > 0 else keys.count(winner_key)

            # shadow counterfactuals: which request would each grant?
            picks = []
            disagreed = False
            for shadow in shadows:
                picked = shadow.scheduler.select(channel, bank_id, now)
                picks.append(picked)
                shadow.granted[picked.thread_id] += 1
                if picked is winner:
                    shadow.agreed += 1
                else:
                    shadow.redirected_to[winner_tid] += 1
                    shadow.redirected_from[picked.thread_id] += 1
                    disagreed = True
            if disagreed:
                # a pair can only differ when at least one shadow left
                # the winner, so the k x k scan is skipped on agreement
                choices = [winner] + picks
                k = len(choices)
                disagree = self.disagree
                for i in range(k):
                    for j in range(i + 1, k):
                        if choices[i] is not choices[j]:
                            disagree[i][j] += 1
                            disagree[j][i] += 1
            else:
                picks = None  # every shadow picked the winner
            raw = (now, winner, open_row, candidates, keys, component,
                   delta, runner_up, picks, tied)

        self._last = raw
        self._ring.append(raw)
        if tracer is not None:
            # the grant's ``explain`` event
            if len(raw) == 4:
                tracer.write_row("explain", (
                    now, winner.channel_id, winner.bank_id, winner_tid, 1,
                    TIE_ONLY, 1, "", 0.0, []))
            else:
                disagreed = []
                if picks is not None:
                    for shadow, picked in zip(shadows, picks):
                        if picked is not winner:
                            disagreed.append(shadow.label)
                tracer.write_row("explain", (
                    now, winner.channel_id, winner.bank_id, winner_tid,
                    len(candidates),
                    TIE_QUEUE_ORDER if component is None else TIE_PRIORITY,
                    tied, "" if component is None else component, delta,
                    disagreed))

    def on_grant(self, request, waiting, access, completion: int,
                 now: int) -> None:
        busy_cycles = access.data_end - now
        for hook in self._shadow_scheduled:
            hook(request, waiting, busy_cycles, now)
        if now >= self._starvation_due:
            self._check_starvation(now)

    def on_complete(self, request, now: int) -> None:
        for hook in self._shadow_complete:
            hook(request, now)

    def on_quantum(self, snapshot, now: int) -> None:
        for shadow in self.shadows:
            shadow.scheduler.on_quantum(snapshot, now)
        self._track_clusters(snapshot, now)

    def on_timer(self, now: int, key) -> None:
        if type(key) is tuple:  # (shadow index, the shadow's own key)
            index, shadow_key = key
            self.shadows[index].scheduler.on_timer(now, shadow_key)

    # ------------------------------------------------------------------
    # starvation watch
    # ------------------------------------------------------------------

    def _check_starvation(self, now: int) -> None:
        """Scan each thread's oldest ungranted request at a grant.

        Stride-throttled: crossings are detected within ~0.4% of the
        threshold, and the stride counts simulated cycles, so the events
        stay deterministic.
        """
        self._starvation_due = now + self._starvation_stride
        threshold = self.starvation_threshold
        starving = self._starving
        max_age = self.max_pending_age
        for tid, pending in enumerate(self._pending):
            while pending:
                oldest = pending[0]
                if oldest.start_service is None:
                    break
                pending.popleft()  # granted
            else:
                if starving[tid]:
                    starving[tid] = False
                continue
            age = now - oldest.arrival
            if age > max_age[tid]:
                max_age[tid] = age
            if age <= threshold:
                if starving[tid]:
                    starving[tid] = False
            elif not starving[tid]:
                starving[tid] = True
                event = {
                    "now": now, "tid": tid, "age": age,
                    "pending": len(pending),
                }
                self.starvation_events.append(event)
                if self._tracer is not None:
                    self._tracer.write({
                        "ev": "starvation", "ts": now,
                        "tid": tid, "age": age, "pending": len(pending),
                    })

    # ------------------------------------------------------------------
    # cluster-flip timeline
    # ------------------------------------------------------------------

    def _track_clusters(self, snapshot, now: int) -> None:
        source, clustering = self._clustering_source()
        if clustering is None:
            return
        self.cluster_source = source
        latency = frozenset(clustering.latency_cluster)
        prev = self._cluster_prev
        flips = sorted(latency ^ prev) if prev is not None else []
        self._cluster_prev = latency
        self.cluster_timeline.append({
            "now": now,
            "quantum": snapshot.quantum_index,
            "latency": sorted(latency),
            "flips": flips,
        })

    def _clustering_source(self):
        scheduler = self.system.scheduler
        clustering = getattr(scheduler, "clustering", None)
        if clustering is not None:
            return scheduler.name, clustering
        for shadow in self.shadows:
            clustering = getattr(shadow.scheduler, "clustering", None)
            if clustering is not None:
                return shadow.label, clustering
        return None, None

    # ------------------------------------------------------------------
    # decision records, built on read
    # ------------------------------------------------------------------

    @property
    def records(self) -> List[DecisionRecord]:
        """The kept decision records, oldest first.

        At most ``keep_records`` (all when ``None``).  Each grant's
        record is built on the first read and kept, so repeated reads
        return the same objects (``last_record is records[-1]``).
        """
        ring = self._ring
        first = self.decisions_total - len(ring)
        for position in range(len(ring)):
            raw = ring[position]
            if type(raw) is tuple:
                ring[position] = record = self._record(first + position,
                                                       raw)
                if raw is self._last:
                    self._last = record
        return list(ring)

    @property
    def last_record(self) -> Optional[DecisionRecord]:
        """The latest grant's record (None before the first grant)."""
        raw = self._last
        if type(raw) is not tuple:
            return raw
        record = self._last = self._record(self.decisions_total - 1, raw)
        ring = self._ring
        if ring and ring[-1] is raw:
            ring[-1] = record
        return record

    def _record(self, index: int, raw) -> DecisionRecord:
        """The :class:`DecisionRecord` of grant ``index``'s ring entry."""
        now, winner, open_row = raw[0], raw[1], raw[2]
        if len(raw) == 4:
            candidates, keys, picks = (winner,), (raw[3],), None
            component = delta = runner_up = None
            tie_break, tied = TIE_ONLY, 1
        else:
            (candidates, keys, component, delta, runner_up, picks,
             tied) = raw[3:]
            tie_break = TIE_QUEUE_ORDER if component is None \
                else TIE_PRIORITY
        names = self._prio_names
        records = []
        for request, key in zip(candidates, keys):
            width = len(key) - 1
            slots = names.get(width)
            if slots is None:
                slots = names[width] = _component_names(
                    self._scheduler, width
                )
            records.append(CandidateRecord(
                request.request_id,
                request.thread_id,
                request.arrival,
                request.row,
                request.row == open_row,
                request.is_prefetch,
                key,
                slots,
            ))
        if picks is None:
            picks = [winner] * len(self.shadows)
        return DecisionRecord(
            index,
            now,
            winner.channel_id,
            winner.bank_id,
            winner.request_id,
            winner.thread_id,
            tie_break,
            tied,
            None if runner_up is None else Margin(
                component, delta, runner_up.request_id,
                runner_up.thread_id,
            ),
            tuple(records),
            {
                shadow.label: (picked.request_id, picked.thread_id)
                for shadow, picked in zip(self.shadows, picks)
            },
        )

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able summary of everything the collector aggregated."""
        decisions = self.decisions_total
        return {
            "primary": self.labels[0] if self.labels else None,
            "policies": list(self.labels),
            "decisions": decisions,
            "disagreement": {
                "labels": list(self.labels),
                "matrix": [list(row) for row in self.disagree],
            },
            "shadows": [
                {
                    "label": s.label,
                    "policy": s.key,
                    "agreed": s.agreed,
                    "disagreed": decisions - s.agreed,
                    "granted": list(s.granted),
                    "redirected_to": list(s.redirected_to),
                    "redirected_from": list(s.redirected_from),
                }
                for s in self.shadows
            ],
            "actual_granted": list(self.actual_granted),
            "margins": {
                "decided_by": dict(self.decided_by),
                "hist": {
                    component: {str(b): c for b, c in sorted(hist.items())}
                    for component, hist in self.margin_hist.items()
                },
                "ties": self.ties,
                "only_candidate": self.only_candidate,
            },
            "starvation": {
                "threshold": self.starvation_threshold,
                "events": list(self.starvation_events),
                "max_age": list(self.max_pending_age),
            },
            "clusters": {
                "source": self.cluster_source,
                "timeline": list(self.cluster_timeline),
                "flips_total": sum(
                    len(e["flips"]) for e in self.cluster_timeline
                ),
            },
            "records_kept": len(self._ring),
        }


def attach_explain(
    system,
    shadows: Sequence = (),
    keep_records: Optional[int] = KEEP_RECORDS,
    starvation_threshold: int = STARVATION_THRESHOLD,
) -> ExplainCollector:
    """Attach an :class:`ExplainCollector` to ``system`` before its run."""
    collector = ExplainCollector(
        shadows=shadows,
        keep_records=keep_records,
        starvation_threshold=starvation_threshold,
    )
    return collector.attach(system)

