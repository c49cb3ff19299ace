"""Flame graphs for the self-profiler.

Two interchangeable exports of a :class:`~repro.prof.profiler.\
ProfileReport`'s stack costs:

* **Collapsed stacks** (Brendan Gregg's text format): one line per
  stack path, frames joined by ``;``, a space, then an integer value —
  here microseconds of *self* time.  ``render_collapsed`` /
  ``parse_collapsed`` round-trip exactly (covered by tests), so the
  text file feeds any external flame-graph tool unchanged.
* **Inline SVG** — a self-contained icicle flame graph: embedded
  ``<style>`` with light/dark themes via ``prefers-color-scheme``,
  native ``<title>`` tooltips, no JavaScript and no external assets.
  Frames are colored by component with the page palette
  (:func:`repro.obs.dashboard.component_fill`), so a frame and its
  component's share bar on the run page match.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Tuple

from repro.prof.profiler import Path, ProfileReport, component_of

# ----------------------------------------------------------------------
# collapsed-stack text format
# ----------------------------------------------------------------------

def render_collapsed(report: ProfileReport) -> str:
    """Collapsed stacks with self-time values in integer microseconds.

    Zero-valued stacks (self time rounding to 0 µs) are kept so the
    call structure survives the round trip; lines are sorted for
    determinism.
    """
    lines = []
    for path, self_s in sorted(report.self_times().items()):
        lines.append(f"{';'.join(path)} {int(round(self_s * 1e6))}")
    return "\n".join(lines) + "\n"


def parse_collapsed(text: str) -> Dict[Path, int]:
    """Parse collapsed-stack text back into ``{path: microseconds}``.

    Tolerates blank lines and ``#`` comments; raises ``ValueError`` on
    a malformed line.
    """
    out: Dict[Path, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stack, _, value = line.rpartition(" ")
        if not stack:
            raise ValueError(f"line {lineno}: no stack before value")
        try:
            micros = int(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: value {value!r} is not an integer"
            ) from None
        path = tuple(stack.split(";"))
        out[path] = out.get(path, 0) + micros
    return out


# ----------------------------------------------------------------------
# icicle SVG
# ----------------------------------------------------------------------

def _build_tree(stacks: Dict[Path, int]):
    """Fold self-values into a nested tree with inclusive totals."""
    root: dict = {"children": {}, "self": 0}
    for path, value in stacks.items():
        node = root
        for frame in path:
            node = node["children"].setdefault(
                frame, {"children": {}, "self": 0}
            )
        node["self"] += value
    def total(node) -> int:
        node["total"] = node["self"] + sum(
            total(child) for child in node["children"].values()
        )
        return node["total"]
    total(root)
    return root


_SVG_CSS = """
svg.flame { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
svg.flame .bg { fill: #f9f9f7; }
svg.flame text { fill: #0b0b0b; }
svg.flame .hdr { fill: #52514e; }
svg.flame rect.frame { stroke: #f9f9f7; stroke-width: 1; rx: 2; }
@media (prefers-color-scheme: dark) {
  svg.flame .bg { fill: #0d0d0d; }
  svg.flame text { fill: #ffffff; }
  svg.flame .hdr { fill: #c3c2b7; }
  svg.flame rect.frame { stroke: #0d0d0d; }
  svg.flame rect.frame { fill: var(--dark-fill, inherit); }
}
"""


def render_flame_svg(
    report: ProfileReport,
    title: str = "repro.prof flame graph",
    width: int = 980,
    standalone: bool = True,
) -> str:
    """Self-contained icicle flame graph as an SVG document string.

    Root at the top, children below; frame width is proportional to
    inclusive time.  The header lists per-component shares (they sum
    to 100% up to rounding).  Dark mode comes from an embedded
    ``prefers-color-scheme`` stylesheet; hover tooltips are native
    ``<title>`` elements — no scripts anywhere.  ``standalone=False``
    drops the ``xmlns`` declaration, which SVG inlined in HTML does not
    need.
    """
    from repro.obs.dashboard import component_fill

    stacks = {path: int(round(s * 1e6))
              for path, s in report.self_times().items()}
    tree = _build_tree(stacks)
    total = tree["total"] or 1
    row_h, top, pad = 19, 58, 8

    def depth(node) -> int:
        children = node["children"].values()
        return 1 + max((depth(c) for c in children), default=0)

    height = top + (depth(tree) - 1) * row_h + pad
    parts: List[str] = []

    def emit(name: str, node: dict, x: float, level: int,
             path: Tuple[str, ...]) -> None:
        w = (node["total"] / total) * (width - 2 * pad)
        if w < 0.4:
            return
        y = top + level * row_h
        component = component_of(name)
        light, dark = component_fill(component)
        pct = node["total"] / total
        tip = (f"{';'.join(path)} — {node['total'] / 1e3:.2f} ms "
               f"inclusive ({pct:.1%}), {node['self'] / 1e3:.2f} ms self")
        parts.append(
            f'<rect class="frame" x="{x:.2f}" y="{y}" '
            f'width="{max(1.0, w - 0.5):.2f}" height="{row_h - 2}" '
            f'fill="{light}" style="--dark-fill:{dark}">'
            f"<title>{escape(tip)}</title></rect>"
        )
        if w > 40:
            label = name if w > 7 * len(name) else name[: int(w // 7)] + "…"
            parts.append(
                f'<text x="{x + 4:.2f}" y="{y + row_h - 6}" '
                f'pointer-events="none">{escape(label)}</text>'
            )
        cx = x
        for child_name, child in sorted(node["children"].items()):
            emit(child_name, child, cx, level + 1, path + (child_name,))
            cx += (child["total"] / total) * (width - 2 * pad)

    x = float(pad)
    for name, node in sorted(tree["children"].items()):
        emit(name, node, x, 0, (name,))
        x += (node["total"] / total) * (width - 2 * pad)

    shares = report.component_shares()
    share_text = "  ·  ".join(
        f"{name} {share:.1%}" for name, share in shares.items()
    )
    legend = []
    lx = pad
    for name in shares:
        light, dark = component_fill(name)
        legend.append(
            f'<rect class="frame" x="{lx}" y="38" width="10" height="10" '
            f'fill="{light}" style="--dark-fill:{dark}"/>'
            f'<text class="hdr" x="{lx + 14}" y="47">{escape(name)}</text>'
        )
        lx += 14 + 7 * len(name) + 18
    meta = (f"{report.workload or '?'} under {report.scheduler or '?'} · "
            f"wall {report.wall_s:.3f}s · "
            f"{report.events_per_sec():,.0f} events/s")
    xmlns = ' xmlns="http://www.w3.org/2000/svg"' if standalone else ""
    return (
        f'<svg{xmlns} class="flame" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{escape(title)}">'
        f"<style>{_SVG_CSS}</style>"
        f'<rect class="bg" x="0" y="0" width="{width}" height="{height}"/>'
        f'<text x="{pad}" y="16" font-size="14">{escape(title)}</text>'
        f'<text class="hdr" x="{pad}" y="32">{escape(meta)} · '
        f"{escape(share_text)}</text>"
        + "".join(legend)
        + "".join(parts)
        + "</svg>"
    )
