"""Render a run's telemetry time-series as text reports.

``telemetry report`` (CLI) uses these to print the per-epoch per-thread
MPKI/RBL/BLP table and the Fig. 7-style cluster timeline — the
time-varying view that explains *why* a run behaved the way it did,
which end-of-run aggregates cannot.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.telemetry.sampler import EpochSample


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [[_format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(row):
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in cells)
    return "\n".join(lines)


def epoch_table(samples: Sequence[EpochSample],
                thread_ids: Optional[Sequence[int]] = None,
                benchmarks: Optional[Sequence[str]] = None) -> str:
    """Per-epoch per-thread metrics as one aligned table."""
    if not samples:
        return "(no epoch samples)"
    headers = ["cycle", "tid", "bench", "MPKI", "IPC", "RBL", "BLP",
               "cluster", "rank"]
    rows = []
    for sample in samples:
        for row in sample.threads:
            tid = row["tid"]
            if thread_ids is not None and tid not in thread_ids:
                continue
            rows.append([
                sample.cycle, tid,
                benchmarks[tid] if benchmarks else "-",
                row["mpki"], row["ipc"], row["rbl"], row["blp"],
                row.get("cluster"), row.get("rank"),
            ])
    return _table(headers, rows)


def cluster_timeline(samples: Sequence[EpochSample],
                     benchmarks: Optional[Sequence[str]] = None) -> str:
    """Fig. 7-style timeline: one row per thread, one column per epoch.

    ``L`` = latency-sensitive cluster, ``B`` = bandwidth-sensitive,
    ``.`` = not annotated (scheduler without clustering, or epoch
    before the first quantum).
    """
    if not samples:
        return "(no epoch samples)"
    n = len(samples[0].threads)
    label_of = {None: ".", "latency": "L", "bandwidth": "B"}
    lines = [f"cluster timeline ({len(samples)} epochs of "
             f"{samples[0].cycle} cycles):"]
    for tid in range(n):
        marks = "".join(
            label_of.get(s.threads[tid].get("cluster"), "?")
            for s in samples
        )
        name = benchmarks[tid] if benchmarks else f"t{tid}"
        lines.append(f"  {name:>16} {marks}")
    lines.append("  (L=latency-sensitive, B=bandwidth-sensitive)")
    return "\n".join(lines)


def system_table(samples: Sequence[EpochSample]) -> str:
    """Per-epoch system-level table: queue depths and bus utilisation."""
    if not samples:
        return "(no epoch samples)"
    headers = ["cycle", "queued/ch", "bus util/ch"]
    rows = [
        [s.cycle,
         " ".join(str(q) for q in s.queue_depths),
         " ".join(f"{u:.0%}" for u in s.bus_busy)]
        for s in samples
    ]
    return _table(headers, rows)


def render_report(samples: Sequence[EpochSample],
                  benchmarks: Optional[Sequence[str]] = None) -> str:
    """The full ``telemetry report`` text output."""
    parts: List[str] = [
        epoch_table(samples, benchmarks=benchmarks),
        "",
        cluster_timeline(samples, benchmarks=benchmarks),
        "",
        system_table(samples),
    ]
    return "\n".join(parts)

