"""Self-contained HTML dashboards for runs and campaigns.

Everything is inline — one HTML file with embedded CSS and SVG, no
JavaScript and no external assets — so a dashboard can be attached to a
CI run or mailed around and still render identically.

Two pages:

* :func:`render_run_dashboard` — one run: paper-metric stat tiles,
  per-thread latency histograms, the interference-attribution heatmap,
  per-thread cause breakdowns, estimated-vs-true slowdowns, and the
  Fig. 7-style cluster timeline from the epoch sampler.
* :func:`render_campaign_dashboard` — one campaign store: per-scheduler
  weighted-speedup and maximum-slowdown trajectories across points,
  per-scheduler means, and the point-failure table.

Rendering follows the repo's chart conventions: a validated
categorical palette applied in fixed slot order, one sequential blue
ramp for magnitude, light and dark themes via CSS custom properties,
a legend plus table view for every multi-series chart, and native SVG
``<title>`` tooltips so hover works without scripts.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.aggregate import (
    CampaignObservation,
    RunObservation,
    scheduler_means,
)

#: categorical palette, fixed slot order (light, dark) — identity only,
#: never cycled; a ninth series folds instead
_SERIES = [
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
]

#: sequential blue ramp (mode-shared), light -> dark = low -> high
_RAMP = [
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
]

_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --critical: #d03b3b;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --critical: #d03b3b;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --critical: #d03b3b;
  --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
  --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 18px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 18px; margin: 0 0 18px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 18px; min-width: 120px;
}
.tile .v { font-size: 26px; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 8px 0 0;
          color: var(--ink-2); font-size: 12px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
.facets { display: flex; flex-wrap: wrap; gap: 18px; }
.facet .fl { font-size: 12px; color: var(--ink-2); margin: 0 0 2px; }
details { margin: 10px 0 0; }
summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; margin: 8px 0 0; font-size: 12px; }
th, td { padding: 3px 10px; text-align: right;
         border-bottom: 1px solid var(--grid);
         font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
td.l, th.l { text-align: left; }
.fail { color: var(--critical); }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
"""


def _fmt(value, digits: int = 3) -> str:
    """Compact human formatting for counts and metric values."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    if abs(value) >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if abs(value) >= 10_000:
        return f"{value / 1000:.1f}k"
    return str(value)


def _series_color(slot: int) -> str:
    return f"var(--s{(slot % len(_SERIES)) + 1})"


def _tiles(items: Sequence[Tuple[str, str]]) -> str:
    tiles = "".join(
        f'<div class="tile"><div class="v">{escape(v)}</div>'
        f'<div class="k">{escape(k)}</div></div>'
        for k, v in items
    )
    return f'<div class="tiles">{tiles}</div>'


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    spans = "".join(
        f'<span><span class="sw" style="background:{color}"></span>'
        f"{escape(label)}</span>"
        for label, color in entries
    )
    return f'<div class="legend">{spans}</div>'


def _details_table(headers: Sequence[str], rows: Sequence[Sequence],
                   left_cols: int = 1,
                   summary: str = "Table view") -> str:
    head = "".join(
        f'<th class="{"l" if i < left_cols else ""}">{escape(h)}</th>'
        for i, h in enumerate(headers)
    )
    body = "".join(
        "<tr>" + "".join(
            f'<td class="{"l" if i < left_cols else ""}">'
            f"{escape(_fmt(c) if not isinstance(c, str) else c)}</td>"
            for i, c in enumerate(row)
        ) + "</tr>"
        for row in rows
    )
    return (f"<details><summary>{escape(summary)}</summary>"
            f"<table><tr>{head}</tr>{body}</table></details>")


# ----------------------------------------------------------------------
# single-run charts
# ----------------------------------------------------------------------

def _heatmap(matrix: List[List[int]], labels: List[str]) -> str:
    """Victim×culprit attribution heatmap on the sequential blue ramp."""
    n = len(matrix)
    peak = max((matrix[v][c] for v in range(n) for c in range(n)
                if v != c), default=0)
    cell, gap, left, top = 58, 2, 120, 26
    width = left + n * cell + 8
    height = top + n * cell + 8
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="interference attribution heatmap">']
    for c in range(n):
        x = left + c * cell + cell // 2
        parts.append(f'<text x="{x}" y="{top - 8}" text-anchor="middle" '
                     f'fill="var(--muted)">{escape(labels[c])}</text>')
    for v in range(n):
        y = top + v * cell
        parts.append(f'<text x="{left - 8}" y="{y + cell // 2 + 4}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"{escape(labels[v])}</text>")
        for c in range(n):
            x = left + c * cell
            value = matrix[v][c]
            if v == c or peak == 0 or value == 0:
                fill = "var(--surface-1)"
                ink = "var(--muted)"
            else:
                step = min(len(_RAMP) - 1,
                           int((value / peak) * (len(_RAMP) - 1) + 0.5))
                fill = _RAMP[step]
                ink = "#ffffff" if step >= 6 else "#0b0b0b"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell - gap}" '
                f'height="{cell - gap}" rx="3" fill="{fill}" '
                f'stroke="var(--grid)" stroke-width="1">'
                f"<title>victim {escape(labels[v])} ← culprit "
                f"{escape(labels[c])}: {value} cycles</title></rect>"
            )
            parts.append(
                f'<text x="{x + (cell - gap) // 2}" '
                f'y="{y + cell // 2 + 3}" text-anchor="middle" '
                f'fill="{ink}">{_fmt(value)}</text>'
            )
    parts.append("</svg>")
    table = _details_table(
        ["victim \\ culprit"] + labels,
        [[labels[v]] + [matrix[v][c] for c in range(n)]
         for v in range(n)],
    )
    return ("<h2>Interference attribution — delay[victim][culprit] "
            "(queueing cycles)</h2>" + "".join(parts) + table)


def _histograms(latencies: List[List[int]], labels: List[str]) -> str:
    """Per-thread latency histograms as small multiples (one hue)."""
    flat = [x for lat in latencies for x in lat]
    if not flat:
        return ("<h2>Request latency per thread</h2>"
                '<p class="sub">(no completed requests)</p>')
    peak_latency = max(flat)
    bins = 24
    edge = max(1, (peak_latency + bins) // bins)
    w, h, bar = 260, 90, 260 // bins
    facets, rows = [], []
    for tid, lat in enumerate(latencies):
        counts = [0] * bins
        for x in lat:
            counts[min(bins - 1, x // edge)] += 1
        peak = max(counts) or 1
        bars = []
        for b, count in enumerate(counts):
            bh = int((count / peak) * (h - 4))
            if count:
                bars.append(
                    f'<rect x="{b * bar}" y="{h - bh}" '
                    f'width="{bar - 2}" height="{bh}" rx="2" '
                    f'fill="var(--s1)"><title>'
                    f"{b * edge}–{(b + 1) * edge} cycles: {count} "
                    f"requests</title></rect>"
                )
            rows.append([labels[tid], f"{b * edge}–{(b + 1) * edge}",
                         count])
        mean = sum(lat) / len(lat) if lat else 0.0
        facets.append(
            f'<div class="facet"><div class="fl">{escape(labels[tid])} '
            f"· mean {mean:.0f} cy</div>"
            f'<svg width="{w}" height="{h + 16}">'
            f'{"".join(bars)}'
            f'<line x1="0" y1="{h}" x2="{w}" y2="{h}" '
            f'stroke="var(--baseline)"/>'
            f'<text x="0" y="{h + 13}" fill="var(--muted)">0</text>'
            f'<text x="{w}" y="{h + 13}" text-anchor="end" '
            f'fill="var(--muted)">{bins * edge} cy</text>'
            f"</svg></div>"
        )
    table = _details_table(["thread", "latency bin", "requests"], rows,
                           left_cols=2)
    return ("<h2>Request latency per thread</h2>"
            f'<div class="facets">{"".join(facets)}</div>' + table)


_CAUSE_SLOTS = [("queue", 0, "bank queueing"),
                ("row", 1, "row-conflict precharge"),
                ("bus", 2, "data-bus wait"),
                ("queue_partial", 3, "arrival-time partial")]


def _cause_bars(causes: List[dict], labels: List[str]) -> str:
    """Per-victim other-inflicted cycles as stacked horizontal bars."""
    totals = [sum(row[key] for key, _, _ in _CAUSE_SLOTS)
              for row in causes]
    peak = max(totals) or 1
    w, bh, gap, left = 560, 22, 10, 120
    height = len(causes) * (bh + gap) + 6
    parts = [f'<svg width="{w + left + 70}" height="{height}" role="img" '
             f'aria-label="interference cause breakdown">']
    rows = []
    for tid, row in enumerate(causes):
        y = tid * (bh + gap)
        parts.append(f'<text x="{left - 8}" y="{y + bh - 6}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"{escape(labels[tid])}</text>")
        x = left
        for key, slot, desc in _CAUSE_SLOTS:
            seg = int((row[key] / peak) * w)
            if seg > 2:
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{seg - 2}" '
                    f'height="{bh}" rx="3" '
                    f'fill="{_series_color(slot)}">'
                    f"<title>{escape(labels[tid])} — {desc}: "
                    f"{row[key]} cycles</title></rect>"
                )
            x += seg
        parts.append(f'<text x="{x + 6}" y="{y + bh - 6}" '
                     f'fill="var(--ink-2)">{_fmt(totals[tid])}</text>')
        rows.append([labels[tid]] + [row[key] for key, _, _ in
                                     _CAUSE_SLOTS] + [totals[tid]])
    parts.append("</svg>")
    legend = _legend([(desc, _series_color(slot))
                      for _, slot, desc in _CAUSE_SLOTS])
    table = _details_table(
        ["thread", "queueing", "row-conflict", "bus",
         "arrival partial", "total"], rows)
    return ("<h2>Other-inflicted delay by cause</h2>"
            + "".join(parts) + legend + table)


def _slowdown_bars(estimated: List[float],
                   true_slowdowns: Optional[List[float]],
                   labels: List[str]) -> str:
    """Attribution-estimated vs true alone-run slowdowns, per thread."""
    pairs = [(est, (true_slowdowns[t] if true_slowdowns else None))
             for t, est in enumerate(estimated)]
    peak = max([e for e, _ in pairs]
               + [t for _, t in pairs if t is not None] + [1.0])
    w, bh, gap, left = 440, 14, 16, 120
    per = bh * (2 if true_slowdowns else 1) + 4
    height = len(pairs) * (per + gap) + 4
    parts = [f'<svg width="{w + left + 60}" height="{height}" role="img" '
             f'aria-label="estimated versus true slowdown">']
    rows = []
    for tid, (est, true_s) in enumerate(pairs):
        y = tid * (per + gap)
        parts.append(f'<text x="{left - 8}" y="{y + per // 2 + 4}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"{escape(labels[tid])}</text>")
        ew = int((est / peak) * w)
        parts.append(
            f'<rect x="{left}" y="{y}" width="{max(2, ew)}" '
            f'height="{bh}" rx="3" fill="var(--s1)">'
            f"<title>{escape(labels[tid])} estimated slowdown: "
            f"{est:.3f}</title></rect>"
        )
        if true_s is not None:
            tw = int((min(true_s, peak) / peak) * w)
            parts.append(
                f'<rect x="{left}" y="{y + bh + 2}" width="{max(2, tw)}" '
                f'height="{bh}" rx="3" fill="var(--s2)">'
                f"<title>{escape(labels[tid])} true slowdown: "
                f"{true_s:.3f}</title></rect>"
            )
        rows.append([labels[tid], round(est, 3),
                     round(true_s, 3) if true_s is not None else "-"])
    parts.append("</svg>")
    legend = _legend([("estimated (attribution)", "var(--s1)")]
                     + ([("true (alone run)", "var(--s2)")]
                        if true_slowdowns else []))
    table = _details_table(["thread", "estimated", "true"], rows)
    return ("<h2>Slowdown — attribution estimate vs alone-run truth</h2>"
            + "".join(parts) + legend + table)


def _cluster_strip(samples, labels: List[str]) -> str:
    """Fig. 7-style cluster timeline from the epoch sampler."""
    if not samples:
        return ""
    n = len(samples[0].threads)
    stride = max(1, len(samples) // 160)
    picked = samples[::stride]
    cw, ch, gap, left = max(3, 680 // max(1, len(picked))), 14, 3, 120
    width = left + len(picked) * cw + 10
    height = n * (ch + gap) + 22
    fill_of = {"latency": "var(--s1)", "bandwidth": "var(--s2)",
               None: "var(--grid)"}
    name_of = {"latency": "latency-sensitive",
               "bandwidth": "bandwidth-sensitive", None: "unclustered"}
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="cluster timeline">']
    counts: Dict[str, int] = {}
    for tid in range(n):
        y = tid * (ch + gap)
        parts.append(f'<text x="{left - 8}" y="{y + ch - 2}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"{escape(labels[tid])}</text>")
        for i, sample in enumerate(picked):
            cluster = sample.threads[tid].get("cluster")
            counts[name_of.get(cluster, "?")] = (
                counts.get(name_of.get(cluster, "?"), 0) + 1)
            parts.append(
                f'<rect x="{left + i * cw}" y="{y}" width="{cw - 1}" '
                f'height="{ch}" fill="{fill_of.get(cluster, "var(--s8)")}">'
                f"<title>{escape(labels[tid])} @ cycle {sample.cycle}: "
                f"{name_of.get(cluster, cluster)}</title></rect>"
            )
    last = picked[-1].cycle
    parts.append(f'<text x="{left}" y="{height - 6}" '
                 f'fill="var(--muted)">epoch 0</text>')
    parts.append(f'<text x="{width - 10}" y="{height - 6}" '
                 f'text-anchor="end" fill="var(--muted)">'
                 f"cycle {last}</text>")
    parts.append("</svg>")
    legend = _legend([("latency-sensitive", "var(--s1)"),
                      ("bandwidth-sensitive", "var(--s2)"),
                      ("unclustered", "var(--grid)")])
    return ("<h2>Cluster timeline (per epoch)</h2>"
            + "".join(parts) + legend)


# ----------------------------------------------------------------------
# campaign charts
# ----------------------------------------------------------------------

def _trajectory(obs: CampaignObservation, metric: str, title: str) -> str:
    """Per-scheduler metric across the campaign's points, as lines."""
    schedulers = sorted(obs.schedulers)
    point_keys: List[Tuple] = sorted({
        (p["workload"], p["seed"])
        for points in obs.schedulers.values() for p in points
    })
    if not point_keys:
        return ""
    index = {key: i for i, key in enumerate(point_keys)}
    w, h, left, bottom = 640, 180, 46, 22
    values = [p[metric] for points in obs.schedulers.values()
              for p in points if p[metric] is not None]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def sx(i):
        return left + (i / max(1, len(point_keys) - 1)) * (w - left - 90)

    def sy(v):
        return 8 + (1 - (v - lo) / span) * (h - bottom - 8)

    parts = [f'<svg width="{w}" height="{h}" role="img" '
             f'aria-label="{escape(title)}">']
    for frac in (0.0, 0.5, 1.0):
        y = sy(lo + frac * span)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{w - 80}" '
                     f'y2="{y:.1f}" stroke="var(--grid)"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"{lo + frac * span:.2f}</text>")
    rows = []
    for slot, scheduler in enumerate(schedulers):
        pts = [(index[(p["workload"], p["seed"])], p[metric])
               for p in obs.schedulers[scheduler]
               if p[metric] is not None]
        if not pts:
            continue
        pts.sort()
        path = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in pts)
        color = _series_color(slot)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for i, v in pts:
            key = point_keys[i]
            parts.append(
                f'<circle cx="{sx(i):.1f}" cy="{sy(v):.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{escape(scheduler)} — '
                f"{escape(str(key[0]))} seed {key[1]}: {v:.3f}"
                f"</title></circle>"
            )
            rows.append([scheduler, str(key[0]), key[1], round(v, 4)])
        if len(schedulers) <= 4:
            i, v = pts[-1]
            parts.append(f'<text x="{sx(i) + 8:.1f}" y="{sy(v) + 4:.1f}" '
                         f'fill="var(--ink-2)">{escape(scheduler)}</text>')
    parts.append(f'<line x1="{left}" y1="{h - bottom}" x2="{w - 80}" '
                 f'y2="{h - bottom}" stroke="var(--baseline)"/>')
    parts.append("</svg>")
    legend = _legend([(s, _series_color(i))
                      for i, s in enumerate(schedulers)])
    table = _details_table(["scheduler", "workload", "seed", metric],
                           rows, left_cols=2)
    return f"<h2>{escape(title)}</h2>" + "".join(parts) + legend + table


# ----------------------------------------------------------------------
# pages
# ----------------------------------------------------------------------

def _page(title: str, subtitle: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        '<meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">'
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body class="viz-root"><h1>{escape(title)}</h1>'
        f'<p class="sub">{escape(subtitle)}</p>{body}</body></html>'
    )


def render_run_dashboard(obs: RunObservation) -> str:
    """One run's observability page as a self-contained HTML string."""
    labels = [f"t{t}:{b}" for t, b in enumerate(obs.benchmarks)]
    report = obs.report
    tiles = [("scheduler", obs.scheduler),
             ("cycles", _fmt(obs.cycles)),
             ("requests", _fmt(obs.total_requests)),
             ("row-hit rate", f"{obs.row_hit_rate:.1%}"),
             ("attributed cycles", _fmt(report.total_attributed))]
    if obs.metrics:
        tiles += [("weighted speedup", f"{obs.metrics['ws']:.3f}"),
                  ("max slowdown", f"{obs.metrics['ms']:.3f}"),
                  ("harmonic speedup", f"{obs.metrics['hs']:.3f}")]
    checks = ", ".join(f"{k}: {v}" for k, v in report.checks.items())
    body = [_tiles(tiles)]
    if report.latencies is not None:
        body.append(f'<div class="card">'
                    f"{_histograms(report.latencies, labels)}</div>")
    body.append(f'<div class="card">{_heatmap(report.matrix, labels)}'
                "</div>")
    if report.causes is not None:
        body.append(f'<div class="card">'
                    f"{_cause_bars(report.causes, labels)}</div>")
    slowdowns = _slowdown_bars(report.estimated_slowdowns,
                               report.true_slowdowns, labels)
    body.append(f'<div class="card">{slowdowns}</div>')
    strip = _cluster_strip(obs.samples, labels)
    if strip:
        body.append(f'<div class="card">{strip}</div>')
    body.append(f'<p class="sub">reconciliation — {escape(checks)}</p>')
    return _page(
        f"repro.obs — {obs.workload} under {obs.scheduler}",
        f"seed {obs.seed} · {len(obs.benchmarks)} threads · "
        f"span-derived attribution, reconciled",
        "".join(body),
    )


def render_campaign_dashboard(obs: CampaignObservation,
                              title: str = "campaign") -> str:
    """One campaign store's page as a self-contained HTML string."""
    points = sum(len(p) for p in obs.schedulers.values())
    tiles = [("points", _fmt(points)),
             ("schedulers", _fmt(len(obs.schedulers))),
             ("workloads", _fmt(len({
                 p["workload"] for pts in obs.schedulers.values()
                 for p in pts}))),
             ("failures", _fmt(len(obs.failures)))]
    body = [_tiles(tiles)]
    for metric, name in (("ws", "Weighted speedup across points"),
                         ("ms", "Maximum slowdown across points")):
        chart = _trajectory(obs, metric, name)
        if chart:
            body.append(f'<div class="card">{chart}</div>')
    means = scheduler_means(obs)
    if means:
        rows = [[m["scheduler"], m["points"], round(m["ws"], 3),
                 round(m["ms"], 3), round(m["hs"], 3)] for m in means]
        head = "".join(
            f'<th class="{"l" if i == 0 else ""}">{h}</th>'
            for i, h in enumerate(
                ["scheduler", "points", "mean WS", "mean MS", "mean HS"])
        )
        cells = "".join(
            "<tr>" + "".join(
                f'<td class="{"l" if i == 0 else ""}">{_fmt(c)}</td>'
                for i, c in enumerate(row)) + "</tr>"
            for row in rows
        )
        body.append(f'<div class="card"><h2>Per-scheduler means</h2>'
                    f"<table><tr>{head}</tr>{cells}</table></div>")
    if obs.failures:
        rows = "".join(
            f'<tr><td class="l">{escape(str(f["workload"]))}</td>'
            f'<td class="l">{escape(str(f["scheduler"]))}</td>'
            f'<td>{f["seed"]}</td><td>{f["attempts"]}</td>'
            f'<td class="l fail">{escape(str(f["error"])[:120])}</td></tr>'
            for f in obs.failures
        )
        body.append(
            '<div class="card"><h2>Point failures</h2><table>'
            '<tr><th class="l">workload</th><th class="l">scheduler</th>'
            "<th>seed</th><th>attempts</th>"
            '<th class="l">error</th></tr>' + rows + "</table></div>"
        )
    else:
        body.append('<div class="card"><h2>Point failures</h2>'
                    '<p class="sub">none — every point completed.</p>'
                    "</div>")
    return _page(f"repro.obs — campaign: {title}",
                 f"{points} points · {len(obs.schedulers)} schedulers",
                 "".join(body))


# ----------------------------------------------------------------------
# divergence forensics panel (repro.diverge)
# ----------------------------------------------------------------------

def render_diverge_dashboard(report: Dict) -> str:
    """A divergence forensic report as a self-contained no-JS page.

    ``report`` is the JSON document built by
    :func:`repro.diverge.report.build_report`.
    """
    body: List[str] = []
    divergence = report.get("divergence")
    tiles = [
        ("side A", report.get("label_a", "a")),
        ("side B", report.get("label_b", "b")),
        ("horizon", _fmt(report.get("horizon"))),
        ("cadence", _fmt(report.get("cadence"))),
        ("checkpoints", _fmt(report.get("checkpoints"))),
        ("rounds", _fmt(report.get("rounds"))),
    ]
    if divergence is None:
        tiles.append(("first divergence", "none"))
        body.append(_tiles(tiles))
        body.append("<p>No fingerprint mismatch at any checkpoint — "
                    "both sides agree over the whole horizon.</p>")
    else:
        where = str(divergence["cycle"])
        if not divergence["exact"]:
            where += f" (window from {divergence['last_match']})"
        tiles.append(("first divergence", where))
        tiles.append(("components", ", ".join(divergence["components"])))
        body.append(_tiles(tiles))
        fp_a = divergence["fingerprint_a"]
        fp_b = divergence["fingerprint_b"]
        body.append("<h2>Component fingerprints</h2>")
        body.append(_details_table(
            ["component", "side A", "side B", "match"],
            [
                [name, fp_a.get(name, "-"), fp_b.get(name, "-"),
                 "ok" if fp_a.get(name) == fp_b.get(name) else "DIFF"]
                for name in sorted(set(fp_a) | set(fp_b))
            ],
            summary="Fingerprints at the divergent checkpoint",
        ))
        diff = divergence.get("diff") or []
        body.append("<h2>State diff</h2>")
        if diff:
            body.append(_details_table(
                ["field", "side A", "side B"],
                [[d["path"], repr(d["a"]), repr(d["b"])] for d in diff],
                summary=f"{len(diff)} differing field(s)"
                + (f" (+{divergence['diff_truncated']} truncated)"
                   if divergence.get("diff_truncated") else ""),
            ))
        else:
            body.append("<p>No field-level diff available (baseline "
                        "recordings store fingerprints only).</p>")
        for side, label in (("a", report.get("label_a", "a")),
                            ("b", report.get("label_b", "b"))):
            rings = divergence.get(f"rings_{side}") or {}
            events = rings.get("events") or []
            decisions = rings.get("decisions") or []
            body.append(f"<h2>Side {side.upper()} — {escape(str(label))}"
                        "</h2>")
            if events:
                body.append(_details_table(
                    ["cycle", "kind", "payload", "aux"],
                    [[e[0], e[1], repr(e[2]), e[3]] for e in events],
                    summary=f"Last {len(events)} events",
                ))
            if decisions:
                body.append(_details_table(
                    ["cycle", "ch", "bank", "tid", "row", "queued",
                     "kind", "row hit", "data end"],
                    [[d["cycle"], d["ch"], d["bank"], d["tid"], d["row"],
                      d["queued"], d["kind"],
                      "yes" if d["row_hit"] else "no", d["data_end"]]
                     for d in decisions],
                    summary=f"Last {len(decisions)} scheduler decisions",
                ))
    return _page(
        "repro.diverge — divergence forensics",
        report.get("summary", ""),
        "".join(body),
    )


# ----------------------------------------------------------------------
# explain panel (repro.explain)
# ----------------------------------------------------------------------

def _disagree_heatmap(matrix: List[List[int]], labels: List[str],
                      decisions: int) -> str:
    """Policy×policy disagreement counts on the sequential blue ramp."""
    n = len(matrix)
    peak = max((matrix[a][b] for a in range(n) for b in range(n)
                if a != b), default=0)
    cell, gap, left, top = 76, 2, 130, 26
    width = left + n * cell + 8
    height = top + n * cell + 8
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="policy disagreement heatmap">']
    for c in range(n):
        x = left + c * cell + cell // 2
        parts.append(f'<text x="{x}" y="{top - 8}" text-anchor="middle" '
                     f'fill="var(--muted)">{escape(labels[c])}</text>')
    for a in range(n):
        y = top + a * cell
        parts.append(f'<text x="{left - 8}" y="{y + cell // 2 + 4}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"{escape(labels[a])}</text>")
        for b in range(n):
            x = left + b * cell
            value = matrix[a][b]
            if a == b or peak == 0 or value == 0:
                fill = "var(--surface-1)"
                ink = "var(--muted)"
            else:
                step = min(len(_RAMP) - 1,
                           int((value / peak) * (len(_RAMP) - 1) + 0.5))
                fill = _RAMP[step]
                ink = "#ffffff" if step >= 6 else "#0b0b0b"
            share = f" ({value / decisions:.1%})" if decisions else ""
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell - gap}" '
                f'height="{cell - gap}" rx="3" fill="{fill}" '
                f'stroke="var(--grid)" stroke-width="1">'
                f"<title>{escape(labels[a])} vs {escape(labels[b])}: "
                f"{value} grants chosen differently{share}</title></rect>"
            )
            parts.append(
                f'<text x="{x + (cell - gap) // 2}" '
                f'y="{y + cell // 2 + 3}" text-anchor="middle" '
                f'fill="{ink}">{_fmt(value)}</text>'
            )
    parts.append("</svg>")
    table = _details_table(
        ["policy \\ policy"] + labels,
        [[labels[a]] + [matrix[a][b] for b in range(n)]
         for a in range(n)],
    )
    return ("<h2>Policy disagreement — grants chosen differently "
            f"(of {decisions} decisions)</h2>" + "".join(parts) + table)


def _margin_histograms(margins: Dict) -> str:
    """Per-component winner-margin histograms as small multiples.

    Buckets are power-of-two: bucket ``k`` covers deltas in
    ``[2^(k-1), 2^k)`` (bucket 0 is ``(0, 1)``).
    """
    hist = margins.get("hist") or {}
    decided = margins.get("decided_by") or {}
    if not hist:
        return ("<h2>Winner margin by deciding component</h2>"
                '<p class="sub">(every decision was a tie or a '
                "single-candidate queue)</p>")
    facets, rows = [], []
    h = 90
    for slot, component in enumerate(
            sorted(hist, key=lambda c: -decided.get(c, 0))):
        buckets = {int(k): v for k, v in hist[component].items()}
        lo, hi = min(buckets), max(buckets)
        span = list(range(lo, hi + 1))
        bar = max(10, min(34, 260 // len(span)))
        peak = max(buckets.values()) or 1
        bars = []
        for i, b in enumerate(span):
            count = buckets.get(b, 0)
            label = "(0,1)" if b == 0 else f"[2^{b - 1},2^{b})"
            rows.append([component, label, count])
            if not count:
                continue
            bh = int((count / peak) * (h - 4))
            bars.append(
                f'<rect x="{i * bar}" y="{h - bh}" width="{bar - 2}" '
                f'height="{max(2, bh)}" rx="2" '
                f'fill="{_series_color(slot)}">'
                f"<title>{escape(component)} margin {label}: {count} "
                f"decisions</title></rect>"
            )
        w = len(span) * bar
        facets.append(
            f'<div class="facet"><div class="fl">{escape(component)} '
            f"· decided {_fmt(decided.get(component, 0))}</div>"
            f'<svg width="{max(w, 60)}" height="{h + 16}">'
            f'{"".join(bars)}'
            f'<line x1="0" y1="{h}" x2="{max(w, 60)}" y2="{h}" '
            f'stroke="var(--baseline)"/>'
            f'<text x="0" y="{h + 13}" fill="var(--muted)">'
            f"2^{lo - 1}</text>"
            f'<text x="{max(w, 60)}" y="{h + 13}" text-anchor="end" '
            f'fill="var(--muted)">2^{hi}</text>'
            f"</svg></div>"
        )
    table = _details_table(["component", "margin bucket", "decisions"],
                           rows, left_cols=2)
    extra = (f" · queue-order ties {_fmt(margins.get('ties', 0))}"
             f" · single-candidate "
             f"{_fmt(margins.get('only_candidate', 0))}")
    return ("<h2>Winner margin by deciding component</h2>"
            f'<div class="facets">{"".join(facets)}</div>'
            f'<p class="sub">power-of-two margin buckets{extra}</p>'
            + table)


def _grant_share_bars(snapshot: Dict) -> str:
    """Per-thread actual grants vs each shadow's counterfactual grants."""
    actual = snapshot.get("actual_granted") or []
    shadows = snapshot.get("shadows") or []
    n = len(actual)
    series = [(str(snapshot.get("primary", "actual")), actual)]
    series += [(s["label"], s["granted"]) for s in shadows]
    peak = max((v for _, g in series for v in g), default=0) or 1
    w, bh, gap, left = 440, 12, 14, 120
    per = bh * len(series) + 2 * (len(series) - 1)
    height = n * (per + gap) + 4
    parts = [f'<svg width="{w + left + 60}" height="{height}" role="img" '
             f'aria-label="actual versus counterfactual grants">']
    rows = []
    for tid in range(n):
        y0 = tid * (per + gap)
        parts.append(f'<text x="{left - 8}" y="{y0 + per // 2 + 4}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"t{tid}</text>")
        for slot, (label, grants) in enumerate(series):
            y = y0 + slot * (bh + 2)
            bw = int((grants[tid] / peak) * w)
            parts.append(
                f'<rect x="{left}" y="{y}" width="{max(2, bw)}" '
                f'height="{bh}" rx="3" fill="{_series_color(slot)}">'
                f"<title>t{tid} under {escape(label)}: "
                f"{grants[tid]} grants</title></rect>"
            )
        rows.append([f"t{tid}"] + [grants[tid] for _, grants in series])
    parts.append("</svg>")
    legend = _legend([(label, _series_color(slot))
                      for slot, (label, _) in enumerate(series)])
    table = _details_table(["thread"] + [label for label, _ in series],
                           rows)
    return ("<h2>Grants per thread — actual vs counterfactual</h2>"
            + "".join(parts) + legend + table)


def _flip_timeline(clusters: Dict, num_threads: int) -> str:
    """Quantum-by-quantum cluster membership with flip highlights."""
    timeline = clusters.get("timeline") or []
    if not timeline or not num_threads:
        return ""
    stride = max(1, len(timeline) // 160)
    picked = timeline[::stride]
    cw = max(4, 680 // max(1, len(picked)))
    ch, gap, left = 14, 3, 60
    width = left + len(picked) * cw + 10
    height = num_threads * (ch + gap) + 22
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="cluster flip timeline">']
    for tid in range(num_threads):
        y = tid * (ch + gap)
        parts.append(f'<text x="{left - 8}" y="{y + ch - 2}" '
                     f'text-anchor="end" fill="var(--muted)">'
                     f"t{tid}</text>")
        for i, entry in enumerate(picked):
            latency = tid in entry["latency"]
            flipped = tid in entry["flips"]
            fill = "var(--s1)" if latency else "var(--s2)"
            cluster = "latency" if latency else "bandwidth"
            stroke = (' stroke="var(--critical)" stroke-width="2"'
                      if flipped else "")
            parts.append(
                f'<rect x="{left + i * cw}" y="{y}" width="{cw - 1}" '
                f'height="{ch}" fill="{fill}"{stroke}>'
                f"<title>t{tid} @ quantum {entry['quantum']} "
                f"(cycle {entry['now']}): {cluster}"
                f"{' — flipped' if flipped else ''}</title></rect>"
            )
    first, last = picked[0], picked[-1]
    parts.append(f'<text x="{left}" y="{height - 6}" '
                 f'fill="var(--muted)">quantum {first["quantum"]}</text>')
    parts.append(f'<text x="{width - 10}" y="{height - 6}" '
                 f'text-anchor="end" fill="var(--muted)">'
                 f'quantum {last["quantum"]}</text>')
    parts.append("</svg>")
    legend = _legend([("latency cluster", "var(--s1)"),
                      ("bandwidth cluster", "var(--s2)"),
                      ("flip", "var(--critical)")])
    return (f"<h2>Cluster flips per quantum "
            f"(source: {escape(str(clusters.get('source')))}, "
            f"{clusters.get('flips_total', 0)} flips)</h2>"
            + "".join(parts) + legend)


def render_explain_dashboard(snapshot: Dict,
                             title: str = "decision forensics") -> str:
    """An explain-collector snapshot as a self-contained no-JS page.

    ``snapshot`` is the dict built by
    :meth:`repro.explain.ExplainCollector.snapshot`.
    """
    decisions = snapshot.get("decisions", 0)
    shadows = snapshot.get("shadows") or []
    margins = snapshot.get("margins") or {}
    starvation = snapshot.get("starvation") or {}
    disagreement = snapshot.get("disagreement") or {}
    disagreed_any = sum(s["disagreed"] for s in shadows)
    tiles = [
        ("primary", str(snapshot.get("primary", "-"))),
        ("decisions", _fmt(decisions)),
        ("shadows", _fmt(len(shadows))),
        ("shadow disagreements", _fmt(disagreed_any)),
        ("queue-order ties", _fmt(margins.get("ties", 0))),
        ("starvation events",
         _fmt(len(starvation.get("events") or []))),
    ]
    body = [_tiles(tiles)]
    matrix = disagreement.get("matrix") or []
    labels = disagreement.get("labels") or []
    if len(matrix) > 1:
        body.append('<div class="card">'
                    + _disagree_heatmap(matrix, labels, decisions)
                    + "</div>")
    body.append(f'<div class="card">{_margin_histograms(margins)}</div>')
    if snapshot.get("actual_granted"):
        body.append(f'<div class="card">{_grant_share_bars(snapshot)}'
                    "</div>")
    strip = _flip_timeline(snapshot.get("clusters") or {},
                           len(snapshot.get("actual_granted") or []))
    if strip:
        body.append(f'<div class="card">{strip}</div>')
    events = starvation.get("events") or []
    if events:
        rows = [[f"t{e['tid']}", e["now"], e["age"], e["pending"]]
                for e in events[:50]]
        body.append(
            '<div class="card"><h2>Starvation watch — threshold '
            f'crossings (age &gt; {_fmt(starvation.get("threshold"))} '
            "cycles)</h2>"
            + _details_table(["thread", "cycle", "age", "pending"], rows,
                             summary=f"{len(events)} event(s)")
            + "</div>")
    return _page(
        f"repro.explain — {title}",
        f"{decisions} decisions · {len(shadows)} shadow policies · "
        f"records kept {snapshot.get('records_kept', 0)}",
        "".join(body),
    )


def write_dashboard(html: str, path) -> str:
    """Write a rendered dashboard to ``path`` (UTF-8); returns the path."""
    from pathlib import Path

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html, encoding="utf-8")
    return str(out)
