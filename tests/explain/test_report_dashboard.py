"""The run report's and the run page's explain sections."""

import json

from repro.config import SimConfig
from repro.explain import attach_explain
from repro.obs.dashboard import render_run_page, write_page
from repro.obs.text import render_run_text
from repro.schedulers.registry import make_scheduler
from repro.sim.system import System
from repro.workloads import make_intensity_workload

CYCLES = 8_000


def _snapshot(shadows=("frfcfs", "atlas"), starvation_threshold=300):
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    config = SimConfig(run_cycles=CYCLES, num_threads=4,
                       quantum_cycles=2_000)
    system = System(workload, make_scheduler("tcm"), config, seed=1)
    collector = attach_explain(
        system, shadows=shadows,
        starvation_threshold=starvation_threshold,
    )
    system.run()
    return collector.snapshot()


class TestTextReport:
    def test_report_covers_every_section(self):
        report = render_run_text(explain=_snapshot())
        for needle in (
            "disagreement", "shadow:frfcfs", "shadow:atlas",
            "decided by", "queue-order", "starvation",
        ):
            assert needle in report.lower(), f"missing {needle!r}"

    def test_report_without_shadows(self):
        report = render_run_text(explain=_snapshot(shadows=()))
        assert "decided by" in report.lower()
        assert "shadow:" not in report

    def test_report_survives_json_round_trip(self):
        snapshot = _snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert render_run_text(explain=round_tripped) == \
            render_run_text(explain=snapshot)


class TestDashboard:
    """The run page's explain section."""

    def test_dashboard_is_self_contained(self):
        html = render_run_page(explain=_snapshot())
        assert "<script" not in html
        assert "<svg" in html
        assert "@media (prefers-color-scheme: dark)" in html

    def test_dashboard_shows_the_forensics(self):
        html = render_run_page(explain=_snapshot(), title="smoke mix")
        assert "smoke mix" in html
        assert "shadow:frfcfs" in html
        assert "shadow:atlas" in html
        # the four chart families: disagreement heatmap, margin
        # histograms, grant-share bars, cluster-flip timeline
        for needle in ("disagree", "margin", "grant", "quantum"):
            assert needle in html.lower(), f"missing {needle!r}"

    def test_dashboard_without_shadows_still_renders(self):
        html = render_run_page(explain=_snapshot(shadows=()))
        assert "<svg" in html
        assert "shadow:" not in html

    def test_dashboard_from_round_tripped_snapshot(self):
        snapshot = json.loads(json.dumps(_snapshot()))
        assert render_run_page(explain=snapshot) == \
            render_run_page(explain=_snapshot())

    def test_write_dashboard(self, tmp_path):
        out = tmp_path / "explain.html"
        path = write_page(render_run_page(explain=_snapshot()), out)
        text = out.read_text()
        assert str(path) == str(out)
        assert text.startswith("<!DOCTYPE html>") or \
            text.lstrip().startswith("<")
