"""Flame-graph export: collapsed-stack text and self-contained SVG."""

import pytest

from repro.obs.dashboard import write_page
from repro.prof import (
    parse_collapsed,
    render_collapsed,
    render_flame_svg,
)


@pytest.fixture(scope="module")
def report(tcm_profile):
    """A 24-thread TCM run long enough for some 200 samples."""
    return tcm_profile[1]


class TestCollapsed:
    def test_round_trip_is_exact(self, report):
        # collapsed lines carry SELF time (Gregg semantics), zero-µs
        # stacks kept so the call structure survives the round trip
        text = render_collapsed(report)
        parsed = parse_collapsed(text)
        expected = {
            path: int(round(self_s * 1e6))
            for path, self_s in report.self_times().items()
        }
        assert parsed == expected
        assert sum(parsed.values()) == pytest.approx(
            report.total_s * 1e6, rel=0.01
        )

    def test_format_is_gregg_collapsed(self, report):
        lines = render_collapsed(report).splitlines()
        assert lines  # at least the root frame
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack and ";" not in value
            assert int(value) >= 0
        # the root frame appears as the first path element everywhere
        assert all(line.split(";")[0].split(" ")[0] == "run"
                   for line in lines)

    def test_parse_tolerates_blanks_and_comments(self):
        parsed = parse_collapsed("# comment\n\nrun;a 10\nrun;b 20\n")
        assert parsed == {("run", "a"): 10, ("run", "b"): 20}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_collapsed("no-number-here\n")
        with pytest.raises(ValueError):
            parse_collapsed("run;a not_an_int\n")


class TestSvg:
    def test_svg_is_self_contained(self, report):
        svg = render_flame_svg(report, title="test flame")
        assert svg.startswith("<svg") or svg.startswith("<?xml")
        assert "<script" not in svg
        assert "href" not in svg  # no external fetches
        assert "prefers-color-scheme: dark" in svg
        assert "test flame" in svg

    def test_svg_names_components_and_shares(self, report):
        svg = render_flame_svg(report, title="t")
        shares = report.component_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        for component in shares:
            assert component in svg
        # header shares are rendered as percentages
        assert "%" in svg

    def test_svg_has_tooltips(self, report):
        svg = render_flame_svg(report, title="t")
        assert "<title>" in svg
        assert "ms" in svg

    def test_write_flame_svg(self, report, tmp_path):
        out = tmp_path / "flame.svg"
        written = write_page(render_flame_svg(report, title="t"), out)
        assert str(written) == str(out)
        assert out.read_text(encoding="utf-8").rstrip().endswith("</svg>")
