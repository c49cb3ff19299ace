"""Plain-text rendering of experiment results.

The benchmark harness regenerates the paper's tables and figures as
aligned ASCII tables and series listings; these helpers keep the
formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float, None]


def _render_cell(value: Cell, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 2,
    title: str = "",
) -> str:
    """Render an aligned ASCII table.

    Floats are rounded to ``precision`` decimals and ``None`` prints
    as ``-``; column widths adapt to content.
    """
    str_rows: List[List[str]] = [
        [_render_cell(c, precision) for c in row] for row in rows
    ]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_scatter(
    points: Sequence[tuple],
    title: str = "",
    x_label: str = "weighted speedup",
    y_label: str = "maximum slowdown",
) -> str:
    """Render labelled (x, y) points as a list (the paper's scatter)."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'label':12s}  {x_label:>18s}  {y_label:>18s}")
    for label, x, y in points:
        lines.append(f"{label:12s}  {x:18.3f}  {y:18.3f}")
    return "\n".join(lines)


def plot_scatter(
    points: Sequence[tuple],
    title: str = "",
    width: int = 56,
    height: int = 16,
    x_label: str = "weighted speedup ->",
    y_label: str = "max slowdown",
) -> str:
    """Draw labelled (x, y) points on an ASCII grid.

    Mirrors the paper's performance/fairness scatter plots (Figures 1,
    4 and 6): x grows rightward (better throughput), y grows upward
    (worse fairness) — the ideal point is the lower right corner.  Each
    point is marked with the first letter of its label; a legend maps
    letters back to labels.
    """
    if width < 8 or height < 4:
        raise ValueError("plot must be at least 8x4")
    lines: List[str] = []
    if title:
        lines.append(title)
    if not points:
        lines.append("(no points)")
        return "\n".join(lines)

    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    # pad 5% so extreme points are not on the border
    x_lo, x_hi = x_lo - 0.05 * x_span, x_hi + 0.05 * x_span
    y_lo, y_hi = y_lo - 0.05 * y_span, y_hi + 0.05 * y_span
    x_span, y_span = x_hi - x_lo, y_hi - y_lo

    grid = [[" "] * width for _ in range(height)]
    markers = []
    for label, x, y in points:
        marker = label[0].upper()
        markers.append((marker, label))
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / y_span * (height - 1))
        row = height - 1 - row  # y grows upward
        grid[row][col] = marker

    lines.append(f"{y_label} (up = less fair)")
    for i, row in enumerate(grid):
        y_here = y_hi - (i + 0.5) / height * y_span
        lines.append(f"{y_here:8.2f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 9 + f"{x_lo:<10.2f}{x_label:^{max(0, width - 20)}}{x_hi:>10.2f}")
    seen = []
    for marker, label in markers:
        entry = f"{marker}={label}"
        if entry not in seen:
            seen.append(entry)
    lines.append("legend: " + "  ".join(seen))
    return "\n".join(lines)
