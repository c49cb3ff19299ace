"""Collect page-ready observations from runs and campaign stores.

Two entry points, mirroring :mod:`repro.obs.dashboard`'s two pages:

* :func:`observe_run` — execute one workload under one scheduler with
  full observability (spans + epoch sampler, explain when given shadow
  policies, trace files when given sinks, and the sampling
  self-profiler) and fold the result into a :class:`RunObservation`:
  reconciled attribution report, true alone-run slowdowns, paper
  metrics, epoch samples for the cluster timeline, the explain
  snapshot, the profile.
* :func:`observe_campaign` — read a :class:`repro.campaign` store and
  gather every point's metrics per scheduler plus the failure list into
  a :class:`CampaignObservation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SimConfig
from repro.obs.attribution import AttributionReport, attribution_report


@dataclass
class RunObservation:
    """Everything one run's page renders."""

    workload: str
    scheduler: str
    seed: int
    cycles: int
    benchmarks: List[str]
    report: AttributionReport
    #: epoch samples (cluster timeline source); may be empty
    samples: list
    #: paper metrics {"ws", "ms", "hs"} when alone runs were computed
    metrics: Optional[Dict[str, float]] = None
    total_requests: int = 0
    row_hit_rate: float = 0.0
    #: trace events the run emitted
    events: int = 0
    #: explain-collector snapshot when shadows were given, else None
    explain: Optional[dict] = None
    #: the self-profiler's :class:`~repro.prof.ProfileReport` of the run
    profile: Optional[object] = None


@dataclass
class CampaignObservation:
    """Everything the campaign page renders."""

    #: scheduler name -> list of point dicts
    #: ({workload, seed, tag, ws, ms, hs}), sorted by (workload, seed)
    schedulers: Dict[str, List[dict]] = field(default_factory=dict)
    #: failed points: {workload, scheduler, seed, error, attempts}
    failures: List[dict] = field(default_factory=list)
    #: campaign summary record meta, when the store has one
    summary: Optional[dict] = None


def observe_run(
    workload,
    scheduler_name: str,
    config: Optional[SimConfig] = None,
    seed: int = 0,
    params=None,
    with_alone: bool = True,
    epoch_cycles: Optional[int] = None,
    shadows: Optional[Sequence[str]] = None,
    sinks: Sequence = (),
) -> RunObservation:
    """Run ``workload`` under full observability and fold the results.

    ``with_alone`` additionally computes (memoised) alone-run IPCs so
    the observation carries true slowdowns and the paper's metrics;
    disable it for quick structural looks at big workloads.
    ``shadows`` attaches explain to the same run with those shadow
    policies (``()`` for none) and keeps its snapshot.  ``sinks`` are
    the tracer's sinks (JSONL, Perfetto), fed by the same run and
    closed after it; without them the run's events are only counted.
    The self-profiler samples the same run (the alone runs are not in
    it), so its observer labels carry the other instruments' cost.
    """
    from repro.metrics import (
        harmonic_speedup,
        maximum_slowdown,
        weighted_speedup,
    )
    from repro.obs.spans import SpanCollector
    from repro.prof import attach_profiler
    from repro.schedulers import make_scheduler
    from repro.sim import System
    from repro.telemetry import EpochSampler, Telemetry, Tracer
    from repro.telemetry.sinks import NullSink

    config = config or SimConfig()
    # ``Telemetry.observing`` without its in-memory sink: nothing here
    # reads the events, so the tracer feeds only ``sinks`` (a null sink
    # when none are given) and just counts them
    telemetry = Telemetry(
        tracer=Tracer(list(sinks) or [NullSink()]),
        sampler=EpochSampler(epoch_cycles),
        spans=SpanCollector(),
    )
    scheduler = make_scheduler(scheduler_name, params)
    system = System(workload, scheduler, config, seed=seed,
                    telemetry=telemetry)
    collector = None
    if shadows is not None:
        from repro.explain import attach_explain

        collector = attach_explain(system, shadows=shadows)
    profiler = attach_profiler(system)
    try:
        result = system.run()
    finally:
        profile = profiler.detach()
        # an interrupted run still leaves whole trace files of the
        # events it emitted
        telemetry.close()

    true_slowdowns = None
    metrics = None
    if with_alone:
        from repro.experiments.runner import alone_ipcs

        alones = alone_ipcs(workload, config, seed)
        shared = result.ipcs
        true_slowdowns = [
            (alone / ipc) if ipc > 0 else float("inf")
            for alone, ipc in zip(alones, shared)
        ]
        metrics = {
            "ws": weighted_speedup(alones, shared),
            "ms": maximum_slowdown(alones, shared),
            "hs": harmonic_speedup(alones, shared),
        }

    # STFM's private shadow, when present, makes the reconciliation
    # cross-check the paper's accounting exactly
    stfm_totals = getattr(scheduler, "_t_interference", None)
    report = attribution_report(
        telemetry.spans,
        stfm_totals=stfm_totals,
        true_slowdowns=true_slowdowns,
    )
    total = result.row_hits + result.row_conflicts + result.row_closed
    return RunObservation(
        workload=workload.name,
        scheduler=result.scheduler,
        seed=seed,
        cycles=result.cycles,
        benchmarks=[t.benchmark for t in result.threads],
        report=report,
        samples=list(telemetry.samples),
        metrics=metrics,
        total_requests=result.total_requests,
        row_hit_rate=(result.row_hits / total) if total else 0.0,
        events=telemetry.tracer.events_emitted,
        explain=collector.snapshot() if collector else None,
        profile=profile,
    )


def observe_campaign(store) -> CampaignObservation:
    """Gather a campaign store's points and failures per scheduler.

    ``store`` is a :class:`repro.campaign.CampaignStore` or a path to
    one.
    """
    from repro.campaign.store import (
        CampaignStore,
        KIND_FAILURE,
        KIND_POINT,
        KIND_SUMMARY,
    )

    if not hasattr(store, "records"):
        store = CampaignStore(store)

    obs = CampaignObservation()
    for record in store.records(KIND_POINT):
        meta = record.get("meta", {})
        metrics = record.get("payload", {}).get("metrics", {})
        point = {
            "workload": meta.get("workload", "?"),
            "seed": meta.get("seed", 0),
            "tag": meta.get("tag"),
            "ws": metrics.get("ws"),
            "ms": metrics.get("ms"),
            "hs": metrics.get("hs"),
        }
        scheduler = meta.get("scheduler", "?")
        obs.schedulers.setdefault(scheduler, []).append(point)
    for points in obs.schedulers.values():
        points.sort(key=lambda p: (str(p["workload"]), p["seed"]))
    for record in store.records(KIND_FAILURE):
        meta = record.get("meta", {})
        payload = record.get("payload", {})
        obs.failures.append({
            "workload": meta.get("workload", "?"),
            "scheduler": meta.get("scheduler", "?"),
            "seed": meta.get("seed", 0),
            "error": payload.get("error", ""),
            "attempts": payload.get("attempts", 0),
        })
    for record in store.records(KIND_SUMMARY):
        obs.summary = record.get("meta", {})
    return obs


def scheduler_means(obs: CampaignObservation) -> List[dict]:
    """Per-scheduler mean metrics across the campaign's points."""
    rows = []
    for scheduler in sorted(obs.schedulers):
        points = [p for p in obs.schedulers[scheduler]
                  if p["ws"] is not None]
        if not points:
            continue
        n = len(points)
        rows.append({
            "scheduler": scheduler,
            "points": n,
            "ws": sum(p["ws"] for p in points) / n,
            "ms": sum(p["ms"] for p in points) / n,
            "hs": sum(p["hs"] for p in points) / n,
        })
    return rows
