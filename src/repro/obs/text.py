"""One run's text report, with a section per kind of observer data.

:func:`render_run_text` prints, section for section, what
:func:`repro.obs.dashboard.render_run_page` draws: what the machine did
(spans and epoch samples), why each grant went where (explain) and
where the simulator's time went (prof).  Every table is the house
:func:`~repro.experiments.reporting.format_table`.  The ``obs`` command
prints it for its one observed run, all three sections from that run,
or for a saved explain snapshot.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.reporting import format_table

#: epoch-sample cluster annotation -> cluster timeline mark
_CLUSTER_MARKS = {None: ".", "latency": "L", "bandwidth": "B"}


def _epoch_samples(samples, benchmarks: List[str]) -> List[str]:
    """Per-thread and per-channel epoch tables and the Fig. 7-style
    cluster timeline (one row per thread, one mark per epoch)."""
    if not samples:
        return ["(no epoch samples)"]
    timeline = [f"cluster timeline ({len(samples)} epochs of "
                f"{samples[0].cycle} cycles):"]
    timeline += [
        f"  {name:>16} "
        + "".join(_CLUSTER_MARKS.get(s.threads[tid].get("cluster"), "?")
                  for s in samples)
        for tid, name in enumerate(benchmarks)
    ]
    timeline.append("  (L=latency-sensitive, B=bandwidth-sensitive)")
    return [
        format_table(
            ["cycle", "tid", "bench", "MPKI", "IPC", "RBL", "BLP",
             "cluster", "rank"],
            [[s.cycle, row["tid"], benchmarks[row["tid"]], row["mpki"],
              row["ipc"], row["rbl"], row["blp"], row.get("cluster"),
              row.get("rank")]
             for s in samples for row in s.threads],
            title="epoch samples per thread",
        ),
        "\n".join(timeline),
        format_table(
            ["cycle", "queued/ch", "bus util/ch"],
            [[s.cycle, " ".join(str(q) for q in s.queue_depths),
              " ".join(f"{u:.0%}" for u in s.bus_busy)] for s in samples],
            title="epoch samples per channel",
        ),
    ]


def _spans_section(run) -> List[str]:
    report = run.report
    labels = [f"t{t}:{b}" for t, b in enumerate(run.benchmarks)]
    tiles = f"requests={run.total_requests}  row-hit={run.row_hit_rate:.1%}"
    if run.metrics:
        tiles = (f"WS={run.metrics['ws']:.3f}  MS={run.metrics['ms']:.3f}  "
                 f"HS={run.metrics['hs']:.3f}  {tiles}")
    parts = [tiles, format_table(
        ["victim \\ culprit", *labels, "row_sum"],
        [[label, *row, total] for label, row, total
         in zip(labels, report.matrix, report.victim_totals)]
        + [["caused", *report.culprit_totals, report.total_attributed]],
        title="interference attribution — delay[victim][culprit] "
              "(queueing cycles)",
    ), format_table(
        ["thread", "queueing", "row-conflict", "bus", "partial"],
        [[label, row["queue"], row["row"], row["bus"], row["queue_partial"]]
         for label, row in zip(labels, report.causes)],
        title="other-inflicted delay by cause (cycles)",
    )]
    true = report.true_slowdowns
    parts.append(format_table(
        ["thread", "est_slowdown", "true_slowdown"],
        [[label, f"{est:.3f}", f"{true[t]:.3f}" if true else None]
         for t, (label, est)
         in enumerate(zip(labels, report.estimated_slowdowns))],
        title="slowdown — attribution estimate vs alone-run truth",
    ))
    parts += _epoch_samples(run.samples, run.benchmarks)
    parts.append("reconciliation: " + ", ".join(
        f"{k}={v}" for k, v in report.checks.items()))
    return parts


def _explain_section(snapshot: dict) -> List[str]:
    decisions = snapshot["decisions"]
    shadows = snapshot["shadows"]

    def share(count: int) -> str:
        return f"{count / (decisions or 1):.1%}"

    parts = [f"explain: {snapshot['primary']} primary, "
             f"{len(shadows)} shadow(s), {decisions} decisions"]
    if shadows:
        disagreement = snapshot["disagreement"]
        labels = disagreement["labels"]
        parts += [
            format_table(
                ["shadow", "agreed", "disagreed", "agreement"],
                [[s["label"], s["agreed"], s["disagreed"],
                  share(s["agreed"])] for s in shadows],
            ),
            format_table(
                ["policy", *labels],
                [[label, *("-" if i == j else f"{count} ({share(count)})"
                           for j, count in enumerate(row))]
                 for i, (label, row)
                 in enumerate(zip(labels, disagreement["matrix"]))],
                title="disagreement matrix (pairwise disagreeing grants):",
            ),
        ]
    else:
        parts.append("(no shadows attached)")
    margins = snapshot["margins"]
    parts.append(format_table(
        ["decided by", "grants", "share"],
        [[component, count, share(count)] for component, count in sorted(
            margins["decided_by"].items(), key=lambda kv: -kv[1])]
        + [["(queue-order tie)", margins["ties"], share(margins["ties"])],
           ["(only candidate)", margins["only_candidate"],
            share(margins["only_candidate"])]],
    ))
    parts.append(format_table(
        ["tid", "granted"] + [f"{s['policy']} {column}" for s in shadows
                              for column in ("would", "Δ")],
        [[tid, count] + [value for s in shadows for value
                         in (s["granted"][tid], s["granted"][tid] - count)]
         for tid, count in enumerate(snapshot["actual_granted"])],
    ))
    starvation = snapshot["starvation"]
    events = starvation["events"]
    lines = [format_table(["tid", "max pending age"],
                          list(enumerate(starvation["max_age"]))),
             "", f"threshold {starvation['threshold']} cycles: "
                 f"{len(events)} starvation event(s)"]
    lines += [f"  cycle {e['now']}: thread {e['tid']} oldest pending "
              f"{e['age']} cycles ({e['pending']} queued)"
              for e in events[:10]]
    if len(events) > 10:
        lines.append(f"  ... {len(events) - 10} more")
    parts.append("\n".join(lines))
    clusters = snapshot["clusters"]
    timeline = clusters["timeline"]
    parts.append(
        f"cluster timeline from {clusters['source']}: {len(timeline)} "
        f"quanta, {clusters['flips_total']} cluster flip(s); latest "
        f"latency cluster: {timeline[-1]['latency']}" if timeline
        else "(no clustering policy in primary or shadows)"
    )
    return parts


def _perf_section(profile) -> List[str]:
    times = profile.component_times()
    selfs = profile.self_times()
    return [
        f"profiled {profile.workload or '?'} under "
        f"{profile.scheduler or '?'}: wall {profile.wall_s:.3f}s, "
        f"{profile.samples} samples, "
        f"{profile.events} events ({profile.events_per_sec():,.0f} ev/s), "
        f"{profile.requests} requests "
        f"({profile.requests_per_sec():,.0f} req/s)",
        format_table(
            ["component", "share", "self s"],
            [[name, f"{share:.1%}", f"{times[name]:.4f}"]
             for name, share in profile.component_shares().items()],
        ),
        format_table(
            ["stack path", "self ms", "samples"],
            [[";".join(node.path),
              f"{selfs.get(node.path, 0.0) * 1e3:.3f}", node.samples]
             for node in profile.slowest(12)],
            title="slowest phases",
        ),
    ]


def render_run_text(run=None, *, explain: Optional[dict] = None,
                    profile=None) -> str:
    """One run's text report, with a section for each kind of data
    given, as :func:`~repro.obs.dashboard.render_run_page` draws them:
    an :func:`~repro.obs.aggregate.observe_run` observation (spans and
    epoch samples), an explain snapshot, a ``ProfileReport``."""
    blocks = []
    if run is not None:
        blocks.append(f"workload {run.workload} under {run.scheduler} "
                      f"(seed {run.seed}, {run.cycles} cycles, "
                      f"{run.total_requests} requests)")
    for title, present, section in (
        ("What the machine did — spans and epoch samples", run,
         _spans_section),
        ("Why each grant went where — explain", explain, _explain_section),
        ("Where the simulator's time went — prof", profile, _perf_section),
    ):
        if present is not None:
            blocks += [f"== {title} ==", *section(present)]
    return "\n\n".join(blocks)
