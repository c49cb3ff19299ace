"""One page per run and one per campaign: self-contained HTML.

Everything is inline — one HTML file with embedded CSS and SVG, no
JavaScript and no external assets — so a page can be attached to a CI
run or mailed around and still render identically.
:func:`render_run_page` draws one run, with a section for each kind of
observer data it is given; :func:`render_campaign_page` draws a
campaign store; :func:`write_page` writes either.

Every section draws with one chart kit — heatmap, thread × time strip,
horizontal bars, small-multiple histograms, line chart, and table with
its ``<details>`` view — in the repo's chart conventions: one
categorical palette (:data:`SERIES`) in fixed slot order, one
sequential blue ramp for magnitude, light and dark themes via CSS
custom properties, a legend plus table view for every multi-series
chart, and native SVG ``<title>`` tooltips so hover needs no scripts.
"""

from __future__ import annotations

import math
from html import escape
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.aggregate import (
    CampaignObservation,
    RunObservation,
    scheduler_means,
)

#: categorical palette, fixed slot order (light, dark) — identity only,
#: never cycled; a ninth series folds instead
SERIES = [
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
]

#: the neutral (light, dark) for "other" and "unclustered"
MUTED = ("#898781", "#898781")

#: profiler component -> palette slot; any other component is muted
COMPONENT_SLOTS = {"engine": 0, "scheduler": 1, "dram": 2, "cpu": 3,
                   "telemetry": 4, "obs": 6}

#: sequential blue ramp (mode-shared), light -> dark = low -> high
_RAMP = [
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
]


def component_fill(component: str) -> Tuple[str, str]:
    """A profiler component's (light, dark) fill — the one map the
    flame graph and the page's share bars both use."""
    slot = COMPONENT_SLOTS.get(component)
    return MUTED if slot is None else SERIES[slot]


def _theme(dark: int) -> str:
    """One theme's custom properties: neutrals, then the palette."""
    neutrals = (
        "--page: #0d0d0d; --surface-1: #1a1a19; --ink: #ffffff; "
        "--ink-2: #c3c2b7; --grid: #2c2c2a; --baseline: #383835; "
        "--border: rgba(255,255,255,0.10);" if dark else
        "--page: #f9f9f7; --surface-1: #fcfcfb; --ink: #0b0b0b; "
        "--ink-2: #52514e; --grid: #e1e0d9; --baseline: #c3c2b7; "
        "--border: rgba(11,11,11,0.10);"
    )
    series = " ".join(f"--s{slot + 1}: {pair[dark]};"
                      for slot, pair in enumerate(SERIES))
    return (f"{neutrals} --muted: {MUTED[dark]}; --critical: #d03b3b; "
            f"{series}")


_DARK = f"color-scheme: dark; {_theme(1)}"

_CSS = (
    ":root { color-scheme: light; }\n"
    f".viz-root {{ {_theme(0)} }}\n"
    "@media (prefers-color-scheme: dark) {\n"
    f'  :root:where(:not([data-theme="light"])) .viz-root {{ {_DARK} }}\n'
    "}\n"
    f':root[data-theme="dark"] .viz-root {{ {_DARK} }}\n'
    """
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 17px; margin: 28px 0 10px; }
h3 { font-size: 15px; margin: 0 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.card, .tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px;
}
.card { padding: 16px 18px; margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 18px; margin: 0 0 18px; }
.tile { padding: 12px 18px; min-width: 120px; }
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
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
"""
)


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
    return f"var(--s{(slot % len(SERIES)) + 1})"


# ----------------------------------------------------------------------
# page shell
# ----------------------------------------------------------------------

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


def _card(title: str, *parts: str) -> str:
    return f'<div class="card"><h3>{escape(title)}</h3>{"".join(parts)}</div>'


def _note(text: str) -> str:
    return f'<p class="sub">{escape(text)}</p>'


def _section(title: str, note: str, tiles, cards: Sequence[str]) -> str:
    return (f"<section><h2>{escape(title)}</h2>{_tiles(tiles)}"
            f'{_note(note)}{"".join(cards)}</section>')


def _page(title: str, subtitle: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        '<meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">'
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body class="viz-root"><h1>{escape(title)}</h1>'
        f"{_note(subtitle)}{body}</body></html>"
    )


def write_page(page: str, path) -> Path:
    """Write a rendered page (or SVG) to ``path`` as UTF-8; returns it."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(page, encoding="utf-8")
    return out


# ----------------------------------------------------------------------
# chart kit
# ----------------------------------------------------------------------

def _svg(name: str, width, height, parts: Sequence[str]) -> str:
    return (f'<svg width="{width}" height="{height}" role="img" '
            f'aria-label="{escape(name)}">{"".join(parts)}</svg>')


def _text(x, y, text, anchor: str = "start",
          fill: str = "var(--muted)") -> str:
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
            f'fill="{fill}">{escape(str(text))}</text>')


def _gutter(labels: Sequence[str]) -> int:
    """Left margin wide enough for the longest row label."""
    return 16 + 7 * max((len(str(label)) for label in labels), default=2)


def _table(headers: Sequence[str], rows: Sequence[Sequence],
           align: str = "l", summary: Optional[str] = "Table view") -> str:
    """A table, folded into a no-JS ``<details>`` view unless
    ``summary`` is None.  ``align`` holds one ``l`` or ``r`` per leading
    column; later columns are right-aligned."""
    def cls(i: int) -> str:
        return "l" if align[i:i + 1] == "l" else ""

    head = "".join(f'<th class="{cls(i)}">{escape(h)}</th>'
                   for i, h in enumerate(headers))
    body = "".join(
        "<tr>" + "".join(f'<td class="{cls(i)}">{escape(_fmt(c))}</td>'
                         for i, c in enumerate(row)) + "</tr>"
        for row in rows
    )
    table = f"<table><tr>{head}</tr>{body}</table>"
    if summary is None:
        return table
    return f"<details><summary>{escape(summary)}</summary>{table}</details>"


def _heatmap(name: str, matrix: Sequence[Sequence[int]],
             labels: List[str], corner: str,
             tip: Callable[[int, int, int], str]) -> str:
    """A square matrix on the blue ramp (diagonal blank) and its table.

    ``tip(row, col, value)`` is a cell's tooltip.
    """
    n = len(matrix)
    peak = max((matrix[r][c] for r in range(n) for c in range(n)
                if r != c), default=0)
    cell, left, top = 64, _gutter(labels), 26
    parts = [_text(left + c * cell + cell // 2, top - 8, label, "middle")
             for c, label in enumerate(labels)]
    for r in range(n):
        y = top + r * cell
        parts.append(_text(left - 8, y + cell // 2 + 4, labels[r], "end"))
        for c in range(n):
            x, value = left + c * cell, matrix[r][c]
            fill, ink = "var(--surface-1)", "var(--muted)"
            if r != c and peak and value:
                step = min(len(_RAMP) - 1,
                           int((value / peak) * (len(_RAMP) - 1) + 0.5))
                fill = _RAMP[step]
                ink = "#ffffff" if step >= 6 else "#0b0b0b"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell - 2}" '
                f'height="{cell - 2}" rx="3" fill="{fill}" '
                f'stroke="var(--grid)" stroke-width="1">'
                f"<title>{escape(tip(r, c, value))}</title></rect>"
            )
            parts.append(_text(x + cell // 2 - 1, y + cell // 2 + 3,
                               _fmt(value), "middle", ink))
    svg = _svg(name, left + n * cell + 8, top + n * cell + 8, parts)
    return svg + _table([corner] + labels,
                        [[labels[r]] + list(matrix[r]) for r in range(n)])


def _strip(name: str, labels: List[str], columns: Sequence) -> str:
    """A thread × time strip: a row per label, a cell per column.

    ``columns`` is ``[(when, cells)]`` with ``cells[row]`` a ``(fill,
    state, flagged)`` triple; a flagged cell is outlined.  Past 160
    columns every k-th is drawn; the axis names the first and last.
    """
    picked = columns[::max(1, len(columns) // 160)]
    cw, ch, left = max(4, 680 // len(picked)), 14, _gutter(labels)
    width, height = left + len(picked) * cw + 10, len(labels) * 17 + 22
    parts = []
    for row, label in enumerate(labels):
        y = row * 17
        parts.append(_text(left - 8, y + ch - 2, label, "end"))
        for i, (when, cells) in enumerate(picked):
            fill, state, flagged = cells[row]
            stroke = (' stroke="var(--critical)" stroke-width="2"'
                      if flagged else "")
            parts.append(
                f'<rect x="{left + i * cw}" y="{y}" width="{cw - 1}" '
                f'height="{ch}" fill="{fill}"{stroke}>'
                f"<title>{escape(f'{label} @ {when}: {state}')}</title>"
                "</rect>"
            )
    parts.append(_text(left, height - 6, picked[0][0]))
    parts.append(_text(width - 10, height - 6, picked[-1][0], "end"))
    return _svg(name, width, height, parts)


def _bars(name: str, labels: Sequence[str], series: Sequence,
          stacked: bool = False, fmt: Callable = _fmt) -> str:
    """Horizontal bars, a row per label, and their legend.

    ``series`` is ``[(name, color, values)]``: one bar under another in
    each row, or end to end with the row total when ``stacked``.
    ``fmt`` formats a value for tooltips and totals.
    """
    rows = list(zip(*[values for _, _, values in series]))
    if stacked:
        bh = per = 22
        peak = max((sum(values) for values in rows), default=0)
    else:
        bh, per = 12, 14 * len(series) - 2
        peak = max((v for values in rows for v in values
                    if math.isfinite(v)), default=0)
    peak = peak or 1
    left, w = _gutter(labels), 520
    parts = []
    for i, (label, values) in enumerate(zip(labels, rows)):
        y = i * (per + 12)
        parts.append(_text(left - 8, y + per // 2 + 4, label, "end"))
        x = left
        for k, ((part, color, _), value) in enumerate(zip(series, values)):
            seg = int(min(value, peak) / peak * w)
            if seg > 2 or not stacked:
                parts.append(
                    f'<rect x="{x}" y="{y if stacked else y + 14 * k}" '
                    f'width="{max(2, seg - 2)}" height="{bh}" rx="3" '
                    f'fill="{color}"><title>'
                    f"{escape(f'{label} — {part}: {fmt(value)}')}"
                    "</title></rect>"
                )
            if stacked:
                x += seg
        if stacked:
            parts.append(_text(x + 6, y + bh - 6, fmt(sum(values)),
                               fill="var(--ink-2)"))
    svg = _svg(name, left + w + 70, len(rows) * (per + 12), parts)
    return svg + _legend([(part, color) for part, color, _ in series])


def _facets(items: Sequence[Tuple[str, str]]) -> str:
    cells = "".join(f'<div class="facet"><div class="fl">{escape(caption)}'
                    f"</div>{svg}</div>" for caption, svg in items)
    return f'<div class="facets">{cells}</div>'


def _histograms(name: str, facets: Sequence, unit: str) -> str:
    """Small-multiple histograms, one hue per facet.

    ``facets`` is ``[(title, note, color, bins)]`` with ``bins`` a list
    of ``(label, count)``; each axis names its first and last bin.
    """
    h, items = 90, []
    for title, note, color, bins in facets:
        bar = max(10, min(34, 260 // len(bins)))
        w = max(60, len(bins) * bar)
        peak = max(count for _, count in bins) or 1
        parts = []
        for i, (label, count) in enumerate(bins):
            bh = max(2, int(count / peak * (h - 4)))
            if count:
                parts.append(
                    f'<rect x="{i * bar}" y="{h - bh}" width="{bar - 2}" '
                    f'height="{bh}" rx="2" fill="{color}"><title>'
                    f"{escape(f'{title} {label}: {count} {unit}')}"
                    "</title></rect>"
                )
        parts.append(f'<line x1="0" y1="{h}" x2="{w}" y2="{h}" '
                     f'stroke="var(--baseline)"/>')
        parts.append(_text(0, h + 13, bins[0][0]))
        parts.append(_text(w, h + 13, bins[-1][0], "end"))
        items.append((f"{title} · {note}",
                      _svg(f"{name}: {title}", w, h + 16, parts)))
    return _facets(items)


def _lines(name: str, series: Sequence, width: int = 640,
           height: int = 180) -> str:
    """A line chart on shared axes, with a legend for several series.

    ``series`` is ``[(name, color, points)]`` with ``points`` a list of
    ``(x, y, tip)`` at integer ``x`` positions.
    """
    ys = [y for _, _, points in series for _, y, _ in points]
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    last = max(x for _, _, points in series for x, _, _ in points)
    left, bottom, right = 46, 22, 12

    def sx(x):
        return left + (x / max(1, last)) * (width - left - right)

    def sy(y):
        return 8 + (1 - (y - lo) / span) * (height - bottom - 8)

    parts = []
    for frac in (0.0, 0.5, 1.0):
        y = sy(lo + frac * span)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}"'
                     f' y2="{y:.1f}" stroke="var(--'
                     f'{"grid" if frac else "baseline"})"/>')
        parts.append(_text(left - 6, f"{y + 4:.1f}",
                           f"{lo + frac * span:.3g}", "end"))
    for label, color, points in series:
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y, _ in points)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts += [
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
            f'fill="{color}" stroke="var(--surface-1)" stroke-width="2">'
            f"<title>{escape(tip)}</title></circle>"
            for x, y, tip in points
        ]
    svg = _svg(name, width, height, parts)
    if len(series) < 2:
        return svg
    return svg + _legend([(label, color) for label, color, _ in series])


# ----------------------------------------------------------------------
# run page sections
# ----------------------------------------------------------------------

#: attribution cause -> (legend description, table header)
_CAUSES = [("queue", "bank queueing", "queueing"),
           ("row", "row-conflict precharge", "row-conflict"),
           ("bus", "data-bus wait", "bus"),
           ("queue_partial", "arrival-time partial", "arrival partial")]


def _latency_card(latencies: List[List[int]], labels: List[str]) -> str:
    title = "Request latency per thread"
    flat = [x for lat in latencies for x in lat]
    if not flat:
        return _card(title, _note("(no completed requests)"))
    edge = max(1, (max(flat) + 24) // 24)
    facets, rows = [], []
    for label, lat in zip(labels, latencies):
        counts = [0] * 24
        for x in lat:
            counts[min(23, x // edge)] += 1
        bins = [(f"{b * edge}–{(b + 1) * edge}", count)
                for b, count in enumerate(counts)]
        rows += [[label, span, count] for span, count in bins]
        mean = sum(lat) / len(lat) if lat else 0.0
        facets.append((label, f"mean {mean:.0f} cy", "var(--s1)", bins))
    return _card(title, _histograms("request latency", facets, "requests"),
                 _table(["thread", "latency bin", "requests"], rows, "ll"))


def _spans_section(run: RunObservation, clusters: str) -> str:
    labels = [f"t{t}:{b}" for t, b in enumerate(run.benchmarks)]
    report = run.report
    tiles = [("scheduler", run.scheduler),
             ("cycles", _fmt(run.cycles)),
             ("requests", _fmt(run.total_requests)),
             ("row-hit rate", f"{run.row_hit_rate:.1%}"),
             ("attributed cycles", _fmt(report.total_attributed))]
    if run.metrics:
        tiles += [("weighted speedup", f"{run.metrics['ws']:.3f}"),
                  ("max slowdown", f"{run.metrics['ms']:.3f}"),
                  ("harmonic speedup", f"{run.metrics['hs']:.3f}")]
    cards = [_latency_card(report.latencies, labels)]
    cards.append(_card(
        "Interference attribution — delay[victim][culprit] "
        "(queueing cycles)",
        _heatmap("interference attribution heatmap", report.matrix,
                 labels, "victim \\ culprit",
                 lambda v, c, value: f"victim {labels[v]} ← culprit "
                                     f"{labels[c]}: {value} cycles"),
    ))
    series = [(desc, _series_color(slot),
               [row[key] for row in report.causes])
              for slot, (key, desc, _) in enumerate(_CAUSES)]
    rows = [[label] + [row[key] for key, _, _ in _CAUSES]
            + [sum(row[key] for key, _, _ in _CAUSES)]
            for label, row in zip(labels, report.causes)]
    cards.append(_card(
        "Other-inflicted delay by cause",
        _bars("interference cause breakdown", labels, series,
              stacked=True),
        _table(["thread"] + [h for _, _, h in _CAUSES] + ["total"], rows),
    ))
    estimated, true = report.estimated_slowdowns, report.true_slowdowns
    series = [("estimated (attribution)", "var(--s1)", estimated)]
    if true:
        series.append(("true (alone run)", "var(--s2)", true))
    cards.append(_card(
        "Slowdown — attribution estimate vs alone-run truth",
        _bars("estimated versus true slowdown", labels, series,
              fmt=lambda v: f"{v:.3f}"),
        _table(["thread", "estimated", "true"],
               [[label, round(est, 3), round(true[t], 3) if true else "-"]
                for t, (label, est) in enumerate(zip(labels, estimated))]),
    ))
    cards.append(clusters)
    checks = ", ".join(f"{k}: {v}" for k, v in report.checks.items())
    return _section(
        "What the machine did — spans and epoch samples",
        f"span-derived attribution, reconciled — {checks}", tiles, cards,
    )


def _cluster_card(run: Optional[RunObservation],
                  snapshot: Optional[dict]) -> str:
    """TCM's cluster timeline, once: explain's per-quantum membership
    and flips when there is a snapshot, else the epoch sampler's."""
    clusters = (snapshot or {}).get("clusters") or {}
    threads = len((snapshot or {}).get("actual_granted") or [])
    if clusters.get("timeline") and threads:
        title = (f"Cluster flips per quantum (source: "
                 f"{clusters.get('source')}, "
                 f"{clusters.get('flips_total', 0)} flips)")
        steps = [(f"quantum {e['quantum']} (cycle {e['now']})",
                  ["latency" if t in e["latency"] else "bandwidth"
                   for t in range(threads)], e["flips"])
                 for e in clusters["timeline"]]
    elif run is not None and run.samples:
        title = "Cluster timeline (per epoch)"
        steps = [(f"cycle {sample.cycle}",
                  [t.get("cluster") for t in sample.threads], ())
                 for sample in run.samples]
    else:
        return ""
    fills = {"latency": "var(--s1)", "bandwidth": "var(--s2)",
             None: "var(--grid)"}
    columns = [(when, [(fills.get(c, "var(--s8)"),
                        f"{c or 'unclustered'}"
                        + (" — flipped" if t in flips else ""), t in flips)
                       for t, c in enumerate(states)])
               for when, states, flips in steps]
    labels = ([f"t{t}:{b}" for t, b in enumerate(run.benchmarks)]
              if run is not None else [f"t{t}" for t in range(threads)])
    return _card(title, _strip("cluster timeline", labels, columns),
                 _legend([("latency cluster", fills["latency"]),
                          ("bandwidth cluster", fills["bandwidth"]),
                          ("unclustered", fills[None]),
                          ("flip", "var(--critical)")]))


def _margin_card(margins: dict) -> str:
    """Winner-margin histograms per deciding component; bucket ``k``
    covers deltas in ``[2^(k-1), 2^k)`` (bucket 0 is ``(0, 1)``)."""
    title = "Winner margin by deciding component"
    hist = margins.get("hist") or {}
    decided = margins.get("decided_by") or {}
    if not hist:
        return _card(title, _note("(every decision was a tie or a "
                                  "single-candidate queue)"))
    facets, rows = [], []
    for slot, component in enumerate(
            sorted(hist, key=lambda c: -decided.get(c, 0))):
        buckets = {int(k): v for k, v in hist[component].items()}
        bins = [("(0,1)" if b == 0 else f"[2^{b - 1},2^{b})",
                 buckets.get(b, 0))
                for b in range(min(buckets), max(buckets) + 1)]
        rows += [[component, label, count] for label, count in bins]
        facets.append((component,
                       f"decided {_fmt(decided.get(component, 0))}",
                       _series_color(slot), bins))
    return _card(
        title, _histograms("winner margins", facets, "decisions"),
        _note(f"power-of-two margin buckets · queue-order ties "
              f"{_fmt(margins.get('ties', 0))} · single-candidate "
              f"{_fmt(margins.get('only_candidate', 0))}"),
        _table(["component", "margin bucket", "decisions"], rows, "ll"),
    )


def _explain_section(snapshot: dict, clusters: str) -> str:
    decisions = snapshot.get("decisions", 0)
    shadows = snapshot.get("shadows") or []
    margins = snapshot.get("margins") or {}
    starvation = snapshot.get("starvation") or {}
    disagreement = snapshot.get("disagreement") or {}
    events = starvation.get("events") or []
    tiles = [
        ("primary", str(snapshot.get("primary", "-"))),
        ("decisions", _fmt(decisions)),
        ("shadows", _fmt(len(shadows))),
        ("shadow disagreements", _fmt(sum(s["disagreed"] for s in shadows))),
        ("queue-order ties", _fmt(margins.get("ties", 0))),
        ("starvation events", _fmt(len(events))),
    ]
    cards = []
    matrix = disagreement.get("matrix") or []
    policies = disagreement.get("labels") or []
    if len(matrix) > 1:
        def tip(a, b, value):
            share = f" ({value / decisions:.1%})" if decisions else ""
            return (f"{policies[a]} vs {policies[b]}: {value} grants "
                    f"chosen differently{share}")

        cards.append(_card(
            "Policy disagreement — grants chosen differently "
            f"(of {decisions} decisions)",
            _heatmap("policy disagreement heatmap", matrix, policies,
                     "policy \\ policy", tip),
        ))
    cards.append(_margin_card(margins))
    actual = snapshot.get("actual_granted") or []
    if actual:
        series = [(str(snapshot.get("primary", "actual")), actual)]
        series += [(s["label"], s["granted"]) for s in shadows]
        threads = [f"t{t}" for t in range(len(actual))]
        cards.append(_card(
            "Grants per thread — actual vs counterfactual",
            _bars("actual versus counterfactual grants", threads,
                  [(label, _series_color(slot), grants)
                   for slot, (label, grants) in enumerate(series)]),
            _table(["thread"] + [label for label, _ in series],
                   [[thread] + [grants[t] for _, grants in series]
                    for t, thread in enumerate(threads)]),
        ))
    cards.append(clusters)
    if events:
        cards.append(_card(
            "Starvation watch — threshold crossings "
            f"(age > {_fmt(starvation.get('threshold'))} cycles)",
            _table(["thread", "cycle", "age", "pending"],
                   [[f"t{e['tid']}", e["now"], e["age"], e["pending"]]
                    for e in events[:50]],
                   summary=f"{len(events)} event(s)"),
        ))
    return _section(
        "Why each grant went where — explain",
        f"{decisions} decisions · {len(shadows)} shadow policies · "
        f"records kept {snapshot.get('records_kept', 0)}", tiles, cards,
    )


def _perf_section(profile, records: List[dict]) -> str:
    from repro.prof.history import benches, short_sha

    names = benches(records)
    machines = {tuple(sorted((r.get("machine") or {}).items()))
                for r in records}
    tiles = [
        ("records", _fmt(len(records))),
        ("benchmarks", _fmt(len(names))),
        ("machines", _fmt(len(machines))),
        ("latest sha", short_sha(records[-1] if records else {})),
    ]
    if profile is not None:
        tiles += [("samples", _fmt(profile.samples)),
                  ("events/s", f"{profile.events_per_sec():,.0f}"),
                  ("requests/s", f"{profile.requests_per_sec():,.0f}")]
    cards = []
    if records:
        facets, rows = [], []
        for bench in names:
            history = [r for r in records if r.get("bench") == bench]
            points = []
            for i, r in enumerate(history):
                sha = short_sha(r)
                median, best = r["wall_s"]["median"], r["wall_s"]["best"]
                points.append((i, median,
                               f"{r.get('recorded_on', '?')} @ {sha}: "
                               f"median {median:.4f}s (best {best:.4f}s)"))
                rows.append([bench, r.get("recorded_on", "?"), sha,
                             round(median, 4), round(best, 4),
                             r.get("events_per_sec")])
            facets.append((f"{bench} · {len(history)} record(s)",
                           _lines(f"{bench} wall time",
                                  [(bench, "var(--s1)", points)], 280, 90)))
        cards.append(_card(
            "Wall-time trajectory per benchmark "
            "(median of rounds, newest right)",
            _facets(facets),
            _table(["bench", "date", "sha", "median s", "best s",
                    "events/s"], rows, "lll"),
        ))
    if profile is not None:
        from repro.prof.flame import render_flame_svg

        selfs = profile.self_times()
        run = f"{profile.workload or '?'} under {profile.scheduler or '?'}"
        cards.append(_card(
            f"Slowest phases — {run}",
            _table(["stack path", "self ms", "samples"],
                   [[";".join(node.path),
                     round(selfs.get(node.path, 0.0) * 1e3, 3),
                     node.samples]
                    for node in profile.slowest(12)], summary=None),
        ))
        cards.append(_card("Flame graph", render_flame_svg(
            profile, title=run, standalone=False)))
    return _section(
        "Where the simulator's time went — prof",
        f"{len(records)} history record(s) · append-only "
        "BENCH_history.json · medians of rounds", tiles, cards,
    )


# ----------------------------------------------------------------------
# pages
# ----------------------------------------------------------------------

def render_run_page(
    run: Optional[RunObservation] = None,
    *,
    explain: Optional[dict] = None,
    profile=None,
    history: Sequence[dict] = (),
    title: Optional[str] = None,
) -> str:
    """One run's page, with a section for each kind of data given:
    an :func:`~repro.obs.aggregate.observe_run` observation (spans and
    epoch samples), an explain snapshot, a ``ProfileReport`` and its
    ``BENCH_history`` records.  TCM's cluster timeline is drawn once."""
    clusters = _cluster_card(run, explain)
    sections, kinds = [], []
    if run is not None:
        sections.append(_spans_section(run, "" if explain else clusters))
        kinds += [f"seed {run.seed}", f"{len(run.benchmarks)} threads",
                  "spans"]
    if explain is not None:
        sections.append(_explain_section(explain, clusters))
        kinds.append("explain")
    if profile is not None or history:
        sections.append(_perf_section(profile, list(history)))
        kinds.append("prof")
    if title is None:
        title = f"{run.workload} under {run.scheduler}" if run else "run"
    return _page(f"repro — {title}", " · ".join(kinds), "".join(sections))


def render_campaign_page(obs: CampaignObservation,
                         title: str = "campaign") -> str:
    """One campaign store's page as a self-contained HTML string."""
    points = sum(len(p) for p in obs.schedulers.values())
    keys = sorted({(p["workload"], p["seed"])
                   for pts in obs.schedulers.values() for p in pts})
    index = {key: i for i, key in enumerate(keys)}
    tiles = [("points", _fmt(points)),
             ("schedulers", _fmt(len(obs.schedulers))),
             ("workloads", _fmt(len({workload for workload, _ in keys}))),
             ("failures", _fmt(len(obs.failures)))]
    cards = []
    for metric, name in (("ws", "Weighted speedup across points"),
                         ("ms", "Maximum slowdown across points")):
        series, rows = [], []
        for slot, scheduler in enumerate(sorted(obs.schedulers)):
            pts = sorted((index[(p["workload"], p["seed"])], p[metric])
                         for p in obs.schedulers[scheduler]
                         if p[metric] is not None)
            if not pts:
                continue
            series.append((scheduler, _series_color(slot), [
                (i, v, f"{scheduler} — {keys[i][0]} seed {keys[i][1]}: "
                       f"{v:.3f}") for i, v in pts]))
            rows += [[scheduler, str(keys[i][0]), keys[i][1], round(v, 4)]
                     for i, v in pts]
        if series:
            cards.append(_card(name, _lines(name, series), _table(
                ["scheduler", "workload", "seed", metric], rows, "ll")))
    means = scheduler_means(obs)
    if means:
        cards.append(_card("Per-scheduler means", _table(
            ["scheduler", "points", "mean WS", "mean MS", "mean HS"],
            [[m["scheduler"], m["points"], round(m["ws"], 3),
              round(m["ms"], 3), round(m["hs"], 3)] for m in means],
            summary=None)))
    cards.append(_card("Point failures", _table(
        ["workload", "scheduler", "seed", "attempts", "error"],
        [[str(f["workload"]), str(f["scheduler"]), str(f["seed"]),
          str(f["attempts"]), str(f["error"])[:120]]
         for f in obs.failures], "llrrl", summary=None,
    ) if obs.failures else _note("none — every point completed.")))
    return _page(f"repro — campaign: {title}",
                 f"{points} points · {len(obs.schedulers)} schedulers",
                 _tiles(tiles) + "".join(cards))
