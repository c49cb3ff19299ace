"""The explain collector: per-grant forensics as a run observer.

``ExplainCollector`` is an observer (:mod:`repro.sim.observer`)
attached with :func:`attach_explain`; a run without one is
bit-identical to a run before this module existed.  Attached, the
collector:

* captures a :class:`~repro.explain.records.DecisionRecord` for every
  grant (candidate set, per-candidate priority decomposition, winner
  margin, tie-break provenance) — at the ``on_decision`` hook inside
  ``System._try_schedule``;
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

import math
from collections import Counter, deque
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


def _bucket(delta: float) -> int:
    """Power-of-two histogram bucket for a positive margin delta."""
    if delta <= 0:
        return -1
    return max(0, int(math.floor(math.log2(delta))) + 1) if delta < 1 \
        else int(math.floor(math.log2(delta))) + 1


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
        self.last_record: Optional[DecisionRecord] = None
        self.records = deque(maxlen=keep_records) \
            if keep_records is not None else []
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
        self._pending: List[deque] = []
        self._granted_ids: set = set()
        self._starving: List[bool] = []
        self._starvation_checked_at = -1
        # the scan runs at most once per stride of cycles: crossings are
        # detected within ~0.4% of the threshold, not per grant
        self._starvation_stride = max(1, starvation_threshold // 256)
        # candidate component names, cached per priority-tuple length
        self._prio_names: Optional[Tuple[str, ...]] = None
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
        # bound lifecycle hooks, hoisted once: the relay loops below run
        # per arrival / grant / completion
        self._shadow_arrival = [
            s.scheduler.on_request_arrival for s in self.shadows
        ]
        self._shadow_scheduled = [
            s.scheduler.on_request_scheduled for s in self.shadows
        ]
        self._shadow_complete = [
            s.scheduler.on_request_complete for s in self.shadows
        ]
        self.labels = [system.scheduler.name] + [
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
        self._pending[request.thread_id].append(
            (request.request_id, request.arrival)
        )

    def on_decision(self, channel, bank_id: int, winner, now: int) -> None:
        """Capture the decision; queue still holds the winner."""
        queue = channel.queues[bank_id]
        open_row = channel.banks[bank_id].open_row
        scheduler = self.system.scheduler
        priority = scheduler.priority
        names = self._prio_names
        candidates = []
        append = candidates.append
        winner_key = None
        best_key = None     # runner-up: maximal key among non-winners
        best_req = None
        # Per-candidate cost is the hot part of the attached budget:
        # records carry the key plus the slot-name vocabulary (the
        # components dict is a lazy property).  Richer per-policy
        # detail (ATLAS attained service, STFM slowdown, TCM cluster)
        # stays available through ``scheduler.explain_components`` —
        # ``priority`` is pure, so re-deriving is exact.
        for request in queue:
            row_hit = request.row == open_row
            prio = priority(request, row_hit, now)
            key = (not request.is_prefetch,) + prio
            if names is None or len(names) != len(prio):
                names = self._prio_names = _component_names(
                    scheduler, len(prio)
                )
            append(CandidateRecord(
                request.request_id,
                request.thread_id,
                request.arrival,
                request.row,
                row_hit,
                request.is_prefetch,
                key,
                names,
            ))
            if request is winner:
                winner_key = key
            elif best_key is None or key > best_key:
                best_key = key
                best_req = request

        index = self.decisions_total
        self.decisions_total += 1
        self.actual_granted[winner.thread_id] += 1

        if best_key is None:
            tie_break, tied, margin = TIE_ONLY, 1, None
            self.only_candidate += 1
        else:
            component, delta = margin_of(
                winner_key, best_key, scheduler.PRIORITY_COMPONENTS
            )
            margin = Margin(
                component, delta, best_req.request_id, best_req.thread_id
            )
            if component is None:
                tie_break = TIE_QUEUE_ORDER
                self.ties += 1
            else:
                tie_break = TIE_PRIORITY
                self.decided_by[component] += 1
                hist = self.margin_hist.get(component)
                if hist is None:
                    hist = self.margin_hist[component] = Counter()
                hist[_bucket(delta)] += 1
            # a winner strictly above the runner-up (the maximal other
            # key) is uniquely maximal, so the count is only scanned on
            # exact ties and on non-priority-maximal select overrides
            tied = 1 if delta > 0 else \
                sum(1 for c in candidates if c.key == winner_key)

        # shadow counterfactuals: which request would each policy grant?
        choices = [winner]
        shadow_choices: Dict[str, Tuple[int, int]] = {}
        disagreed: List[str] = []
        for shadow in self.shadows:
            picked = shadow.scheduler.select(channel, bank_id, now)
            choices.append(picked)
            shadow_choices[shadow.label] = (
                picked.request_id, picked.thread_id
            )
            shadow.granted[picked.thread_id] += 1
            if picked is winner:
                shadow.agreed += 1
            else:
                shadow.redirected_to[winner.thread_id] += 1
                shadow.redirected_from[picked.thread_id] += 1
                disagreed.append(shadow.label)
        if disagreed:
            # a pair can only differ when at least one shadow left the
            # winner, so the k x k scan is skipped on full agreement
            k = len(choices)
            disagree = self.disagree
            for i in range(k):
                for j in range(i + 1, k):
                    if choices[i] is not choices[j]:
                        disagree[i][j] += 1
                        disagree[j][i] += 1

        record = DecisionRecord(
            index,
            now,
            channel.channel_id,
            bank_id,
            winner.request_id,
            winner.thread_id,
            tie_break,
            tied,
            margin,
            tuple(candidates),
            shadow_choices,
        )
        self.last_record = record
        self.records.append(record)

        tracer = self.system._tracer
        if tracer is not None:
            margin_component = (
                margin.component if margin is not None
                and margin.component is not None else ""
            )
            tracer.emit(
                "explain", now,
                ch=channel.channel_id, bank=bank_id,
                tid=winner.thread_id, queued=len(candidates),
                tie=tie_break, tied=tied,
                component=margin_component,
                delta=margin.delta if margin is not None else 0.0,
                disagree=disagreed,
            )

    def on_grant(self, request, waiting, access, completion: int,
                 now: int) -> None:
        busy_cycles = access.data_end - now
        for hook in self._shadow_scheduled:
            hook(request, waiting, busy_cycles, now)
        self._granted_ids.add(request.request_id)
        if now - self._starvation_checked_at >= self._starvation_stride:
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
        # stride-throttled: crossings are detected within ~0.1% of the
        # threshold, and the stride counts simulated cycles, so the
        # events stay deterministic
        if now - self._starvation_checked_at < self._starvation_stride:
            return
        self._starvation_checked_at = now
        threshold = self.starvation_threshold
        granted = self._granted_ids
        tracer = self.system._tracer
        for tid, pending in enumerate(self._pending):
            while pending and pending[0][0] in granted:
                granted.discard(pending.popleft()[0])
            if not pending:
                self._starving[tid] = False
                continue
            age = now - pending[0][1]
            if age > self.max_pending_age[tid]:
                self.max_pending_age[tid] = age
            if age > threshold:
                if not self._starving[tid]:
                    self._starving[tid] = True
                    event = {
                        "now": now, "tid": tid, "age": age,
                        "pending": len(pending),
                    }
                    self.starvation_events.append(event)
                    if tracer is not None:
                        tracer.emit(
                            "starvation", now,
                            tid=tid, age=age, pending=len(pending),
                        )
            else:
                self._starving[tid] = False

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
            "records_kept": len(self.records),
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


def explain_run(
    workload,
    scheduler_name: str,
    config=None,
    seed: int = 0,
    params=None,
    shadows: Sequence = (),
    cycles: Optional[int] = None,
    telemetry=None,
    keep_records: Optional[int] = KEEP_RECORDS,
    starvation_threshold: int = STARVATION_THRESHOLD,
):
    """Run ``workload`` under ``scheduler_name`` with explain attached.

    Returns ``(RunResult, ExplainCollector)``.
    """
    from repro.schedulers.registry import make_scheduler
    from repro.sim.system import System

    system = System(
        workload,
        make_scheduler(scheduler_name, params),
        config=config,
        seed=seed,
        telemetry=telemetry,
    )
    collector = attach_explain(
        system,
        shadows=shadows,
        keep_records=keep_records,
        starvation_threshold=starvation_threshold,
    )
    result = system.run(cycles)
    return result, collector
