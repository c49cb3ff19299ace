"""Interference-attribution matrix: who delayed whom, and by how much.

Folds a run's :class:`~repro.obs.spans.SpanCollector` into the analysis
the paper's argument rests on:

* the T×T **delay matrix** ``matrix[victim][culprit]`` of grant-rule
  queueing cycles (STFM's accounting, scheduler-independent);
* per-thread **cause breakdowns** — how much of each thread's
  other-inflicted delay was bank queueing vs row-conflict precharge vs
  data-bus serialisation;
* **slowdown estimates** derived from the attribution (STFM's formula,
  computed for every scheduler) — comparable against true alone-run
  slowdowns when the caller has them.

Everything is *reconciled* rather than trusted: :func:`reconcile`
checks the conservation laws that make the matrix meaningful — zero
diagonal, row sums equal to per-victim interference totals, the grand
total equal to the sum of attributed queueing cycles, exact agreement
with STFM's private shadow accounting, and exact agreement between
the matrix and the recorded wait intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import (
    CAUSE_BUS,
    CAUSE_QUEUE,
    CAUSE_ROW,
    CAUSE_SERVICE,
    SpanCollector,
)

#: shared-cycle floor below which a slowdown estimate is meaningless
#: (mirrors STFM's ``_MIN_SHARED_CYCLES``)
MIN_SHARED_CYCLES = 1000


class ReconciliationError(ValueError):
    """The attribution books do not balance."""


@dataclass
class AttributionReport:
    """A run's interference attribution, ready for rendering or JSON."""

    num_threads: int
    #: grant-rule queueing delay, ``matrix[victim][culprit]``
    matrix: List[List[int]]
    #: row sums of the matrix: total other-inflicted delay per victim
    victim_totals: List[int]
    #: column sums of the matrix: total delay each thread caused others
    culprit_totals: List[int]
    #: sum of every off-diagonal matrix cell
    total_attributed: int
    #: per-thread total request latency (arrival -> completion)
    t_shared: List[int]
    #: STFM-formula slowdown estimate per thread over its completed
    #: requests (1.0 when below floor)
    estimated_slowdowns: List[float]
    #: per-victim other-inflicted cycles by cause:
    #: ``causes[victim] = {"queue": .., "row": .., "bus": ..}``
    causes: List[Dict[str, int]]
    #: per-thread completed-request latency histogram data: list of
    #: latencies per thread
    latencies: List[List[int]]
    #: true slowdowns (alone IPC / shared IPC) when the caller has them
    true_slowdowns: Optional[List[float]] = None
    checks: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "num_threads": self.num_threads,
            "matrix": self.matrix,
            "victim_totals": self.victim_totals,
            "culprit_totals": self.culprit_totals,
            "total_attributed": self.total_attributed,
            "t_shared": self.t_shared,
            "estimated_slowdowns": self.estimated_slowdowns,
            "checks": self.checks,
            "causes": self.causes,
        }
        if self.true_slowdowns is not None:
            out["true_slowdowns"] = self.true_slowdowns
        return out


def estimated_slowdown(shared: int, interference: int) -> float:
    """STFM's slowdown formula from attribution totals (>= 1.0)."""
    if shared < MIN_SHARED_CYCLES:
        return 1.0
    return shared / max(1, shared - interference)


def cause_breakdown(collector: SpanCollector) -> List[Dict[str, int]]:
    """Other-inflicted cycles per victim, split by cause.

    ``queue`` counts only non-partial intervals, so it reconciles with
    the grant-rule matrix; partial arrival-time waits are reported
    separately under ``queue_partial``.
    """
    return _causes_and_latencies(collector)[0]


def _causes_and_latencies(collector: SpanCollector
                          ) -> Tuple[List[Dict[str, int]], List[List[int]]]:
    """:func:`cause_breakdown` and the completed demand requests'
    latencies per thread, in one pass over the spans."""
    causes = [
        {CAUSE_QUEUE: 0, CAUSE_ROW: 0, CAUSE_BUS: 0,
         "queue_partial": 0, CAUSE_SERVICE: 0}
        for _ in range(collector.num_threads)
    ]
    latencies: List[List[int]] = [[] for _ in range(collector.num_threads)]
    for span in collector.iter_spans():
        row = causes[span.thread_id]
        tid = span.thread_id
        for interval in span.intervals:
            cycles = interval.end - interval.start
            if interval.culprit == tid:
                row[CAUSE_SERVICE] += cycles
            elif interval.cause == CAUSE_QUEUE and interval.partial:
                row["queue_partial"] += cycles
            else:
                row[interval.cause] += cycles
        # open spans come last and have no latency
        if not span.is_prefetch and span.latency is not None:
            latencies[tid].append(span.latency)
    return causes, latencies


def span_matrix(collector: SpanCollector) -> List[List[int]]:
    """Rebuild the victim×culprit queueing matrix from raw intervals.

    Independent of the counters the hot path maintains — summing
    non-partial other-thread queue intervals per (victim, culprit) pair
    must reproduce ``collector.matrix`` exactly, which :func:`reconcile`
    uses as its strongest cross-check.
    """
    n = collector.num_threads
    matrix = [[0] * n for _ in range(n)]
    for span in collector.iter_spans():
        tid = span.thread_id
        for interval in span.intervals:
            if (interval.cause == CAUSE_QUEUE and not interval.partial
                    and interval.culprit != tid):
                matrix[tid][interval.culprit] += interval.end - interval.start
    return matrix


def reconcile(
    collector: SpanCollector,
    stfm_totals: Optional[Sequence[int]] = None,
    strict: bool = True,
) -> Dict[str, str]:
    """Check the conservation laws of the attribution accounting.

    Returns ``{check_name: "ok" | failure detail}``.  With ``strict``
    (the default) any failing check raises :class:`ReconciliationError`
    instead.  ``stfm_totals`` is STFM's private ``_t_interference``
    shadow; when given, per-victim totals must match *exactly* — the
    independent cross-check of the paper's slowdown-estimation
    bookkeeping.
    """
    checks: Dict[str, str] = {}
    n = collector.num_threads
    matrix = collector.matrix

    bad = [t for t in range(n) if matrix[t][t] != 0]
    checks["diagonal_zero"] = (
        "ok" if not bad else f"nonzero diagonal at threads {bad}"
    )

    mismatched = [
        (t, sum(matrix[t]), collector.t_interference[t])
        for t in range(n)
        if sum(matrix[t]) != collector.t_interference[t]
    ]
    checks["row_sums_match_victim_totals"] = (
        "ok" if not mismatched
        else f"row sum != t_interference for {mismatched}"
    )

    grand = sum(sum(row) for row in matrix)
    checks["total_conservation"] = (
        "ok" if grand == collector.total_attributed
        else (f"matrix total {grand} != attributed queueing cycles "
              f"{collector.total_attributed}")
    )

    if stfm_totals is not None:
        diffs = [
            (t, collector.t_interference[t], stfm_totals[t])
            for t in range(n)
            if collector.t_interference[t] != stfm_totals[t]
        ]
        checks["stfm_shadow_exact"] = (
            "ok" if not diffs
            else f"shared accounting != STFM shadow at {diffs}"
        )

    rebuilt = span_matrix(collector)
    checks["intervals_rebuild_matrix"] = (
        "ok" if rebuilt == matrix
        else "matrix rebuilt from intervals differs from counters"
    )

    if strict:
        failures = {k: v for k, v in checks.items() if v != "ok"}
        if failures:
            raise ReconciliationError(
                "attribution reconciliation failed: "
                + "; ".join(f"{k}: {v}" for k, v in failures.items())
            )
    return checks


def attribution_report(
    collector: SpanCollector,
    stfm_totals: Optional[Sequence[int]] = None,
    true_slowdowns: Optional[Sequence[float]] = None,
    strict: bool = True,
) -> AttributionReport:
    """Fold a collector into a reconciled :class:`AttributionReport`."""
    checks = reconcile(collector, stfm_totals=stfm_totals, strict=strict)
    n = collector.num_threads
    matrix = [list(row) for row in collector.matrix]
    victim_totals = [sum(row) for row in matrix]
    culprit_totals = [sum(matrix[v][c] for v in range(n)) for c in range(n)]
    causes, latencies = _causes_and_latencies(collector)
    return AttributionReport(
        num_threads=n,
        matrix=matrix,
        victim_totals=victim_totals,
        culprit_totals=culprit_totals,
        total_attributed=collector.total_attributed,
        t_shared=list(collector.t_shared),
        # shared latency and interference over the same requests: the
        # grant rule also charges requests still queued at the horizon,
        # whose latency ``t_shared`` never sees
        estimated_slowdowns=[
            estimated_slowdown(collector.t_shared[t],
                               collector.completed_interference[t])
            for t in range(n)
        ],
        causes=causes,
        latencies=latencies,
        true_slowdowns=(list(true_slowdowns)
                        if true_slowdowns is not None else None),
        checks=checks,
    )

