"""Tests for repro.obs.dashboard — self-contained HTML pages.

The acceptance bar: every page — the campaign page, and the run page
with each section it can carry (spans, explain, prof with history)
— is valid, fully self-contained HTML (inline SVG + CSS,
zero JavaScript, no URLs, dark-mode aware), verified here by parsing
the output.
"""

import subprocess
import sys
from html.parser import HTMLParser
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.obs.aggregate import observe_campaign, observe_run
from repro.obs.dashboard import (
    render_campaign_page,
    render_run_page,
    write_page,
)
from repro.workloads import (
    RANDOM_ACCESS,
    STREAMING,
    workload_from_specs,
)

from tests.explain.test_report_dashboard import _snapshot
from tests.obs.test_aggregate import seeded_store

ROOT = Path(__file__).resolve().parents[2]
PAIR = workload_from_specs("pair", [RANDOM_ACCESS, STREAMING])
CFG = SimConfig(run_cycles=40_000, num_threads=2)

VOID = {"br", "hr", "img", "input", "meta", "link", "col", "wbr",
        "circle", "rect", "line", "polyline", "polygon", "path",
        "stop", "use"}


class StructureAudit(HTMLParser):
    """Checks tag balance and inventories the page."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []
        self.counts = {}

    def handle_starttag(self, tag, attrs):
        self.counts[tag] = self.counts.get(tag, 0) + 1
        if tag not in VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in VOID:
            return
        if not self.stack:
            self.errors.append(f"stray </{tag}>")
        elif self.stack[-1] != tag:
            self.errors.append(
                f"mismatched </{tag}>, open is <{self.stack[-1]}>"
            )
        else:
            self.stack.pop()


def audited(html):
    audit = StructureAudit()
    audit.feed(html)
    audit.close()
    assert audit.errors == [], audit.errors[:5]
    assert audit.stack == [], f"unclosed tags: {audit.stack}"
    return audit


def assert_self_contained(html, audit):
    assert audit.counts.get("script", 0) == 0
    assert "http://" not in html and "https://" not in html
    assert "@media (prefers-color-scheme: dark)" in html
    assert audit.counts.get("style", 0) >= 1


@pytest.fixture(scope="module")
def observation():
    return observe_run(PAIR, "frfcfs", CFG, seed=5, epoch_cycles=10_000)


@pytest.fixture(scope="module")
def run_page(observation):
    return render_run_page(observation)


@pytest.fixture(scope="module")
def profile(tcm_profile):
    """A profile with samples: the 2-thread ``CFG`` run is over before
    the sampler's first tick."""
    return tcm_profile[1]


@pytest.fixture(scope="module")
def history():
    from repro.prof import load

    return load(ROOT / "BENCH_history.json")


def _page(kind, observation, profile, history):
    sections = {
        "spans": {"run": observation},
        "explain": {"explain": _snapshot()},
        "prof": {"profile": profile, "history": history},
    }
    if kind == "all":
        return render_run_page(**{k: v for s in sections.values()
                                  for k, v in s.items()})
    return render_run_page(**sections[kind])


# the spans-only and campaign pages are audited by TestRunDashboard and
# TestCampaignDashboard below
@pytest.mark.parametrize("kind", ["explain", "prof", "all"])
def test_every_page_is_valid_and_self_contained(
        kind, observation, profile, history):
    html = _page(kind, observation, profile, history)
    audit = audited(html)
    assert_self_contained(html, audit)
    assert audit.counts["section"] == (3 if kind == "all" else 1)


def test_page_module_is_imported_lazily():
    # nothing the simulator, the engine or the CLI import at module
    # level pulls the page module or the text report module in; only
    # drawing a page or printing a report does
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import repro, repro.campaign, repro.diverge, repro.explain\n"
        "import repro.experiments.cli, repro.prof, repro.telemetry\n"
        "import repro.obs, repro.obs.aggregate\n"
        "print('repro.obs.dashboard' in sys.modules,"
        " 'repro.obs.text' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False False"


class TestRunDashboard:
    def test_valid_and_self_contained(self, run_page):
        audit = audited(run_page)
        assert_self_contained(run_page, audit)

    def test_carries_every_panel(self, run_page):
        audit = audited(run_page)
        # heatmap + histograms + cause bars + slowdowns + timeline
        assert audit.counts["svg"] >= 5
        assert audit.counts.get("title", 0) > 4  # SVG tooltips + <head>
        # every chart offers a no-JS table view
        assert audit.counts.get("details", 0) >= 3
        assert audit.counts.get("table", 0) >= 3
        assert "random-access" in run_page
        assert "streaming" in run_page
        assert "Interference attribution" in run_page

    def test_reconciliation_badge(self, run_page):
        assert "reconciled" in run_page.lower()

    def test_one_cluster_timeline_per_page(self):
        # the epoch sampler's strip, unless explain's per-quantum one
        # (with flips) is on the page
        tcm = observe_run(PAIR, "tcm", CFG.with_(quantum_cycles=5_000),
                          seed=5, with_alone=False, shadows=("frfcfs",))
        both = render_run_page(tcm, explain=tcm.explain)
        assert both.count("Cluster flips per quantum") == 1
        assert "Cluster timeline (per epoch)" not in both
        assert render_run_page(tcm).count("Cluster timeline (per epoch)") \
            == 1

    def test_flame_graph_embeds_without_the_namespace_url(self, profile):
        from repro.prof import render_flame_svg

        page = render_run_page(profile=profile)
        assert '<svg class="flame"' in page
        assert "run;engine.advance;engine.loop" in page
        assert "http://www.w3.org/2000/svg" in render_flame_svg(profile)


class TestCampaignDashboard:
    def test_valid_and_self_contained(self, tmp_path):
        obs = observe_campaign(seeded_store(tmp_path))
        html = render_campaign_page(obs, title="t")
        audit = audited(html)
        assert_self_contained(html, audit)
        # WS + MS trajectories for two schedulers
        assert audit.counts.get("polyline", 0) >= 4
        assert "tcm" in html and "atlas" in html
        # the failure table names the broken point
        assert "mix-c" in html and "ValueError" in html

    def test_empty_store_still_renders(self, tmp_path):
        from repro.campaign.store import CampaignStore

        obs = observe_campaign(CampaignStore(tmp_path / "empty"))
        html = render_campaign_page(obs, title="empty")
        audited(html)

    def test_scheduler_names_are_escaped(self, tmp_path):
        # one point record whose scheduler is markup: the means table
        # must escape it like the trajectory and the failure table do
        from repro.campaign.store import KIND_POINT, CampaignStore

        name = "<script>alert(1)</script>"
        store = CampaignStore(tmp_path / "store")
        store.put("k", KIND_POINT,
                  {"metrics": {"ws": 2.0, "ms": 3.0, "hs": 0.5}},
                  meta={"workload": "mix-a", "scheduler": name, "seed": 0})
        store.close()
        html = render_campaign_page(observe_campaign(tmp_path / "store"))
        audit = audited(html)
        assert_self_contained(html, audit)
        assert "<script" not in html
        assert "<td class=\"l\">&lt;script&gt;alert(1)&lt;/script&gt;" \
               "</td><td class=\"\">1</td>" in html


class TestWriteDashboard:
    def test_writes_file(self, tmp_path, run_page):
        out = tmp_path / "sub" / "run.html"
        path = write_page(run_page, out)
        text = out.read_text()
        assert str(path) == str(out)
        assert text == run_page
