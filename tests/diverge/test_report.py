"""Forensic report building, persistence, the run page's divergence
section, Perfetto export."""

import json

import pytest

from repro.diverge import (
    RunSpec,
    bisect_divergence,
    build_report,
    export_perfetto,
    load_report,
    lockstep_compare,
    write_report,
)
from repro.diverge.report import MAX_DIFF_ENTRIES, REPORT_SCHEMA
from repro.obs.dashboard import render_run_page, write_page

CYCLES = 10_000
CADENCE = 2_000

A = RunSpec(seed=11, num_threads=4, run_cycles=CYCLES)
B = RunSpec(seed=12, num_threads=4, run_cycles=CYCLES)


@pytest.fixture(scope="module")
def diverged_report():
    result = bisect_divergence(A.factory(), B.factory(), CYCLES, CADENCE)
    return build_report(result, label_a=A.label(), label_b=B.label(),
                        context={"reason": "test"})


@pytest.fixture(scope="module")
def clean_report():
    result = lockstep_compare(A.factory(), A.factory(), CYCLES, CADENCE)
    return build_report(result, label_a=A.label(), label_b=A.label())


class TestReportDocument:
    def test_schema_and_headline_fields(self, diverged_report):
        report = diverged_report
        assert report["schema"] == REPORT_SCHEMA
        assert report["diverged"] is True
        assert report["context"] == {"reason": "test"}
        divergence = report["divergence"]
        assert divergence["exact"]
        assert divergence["cycle"] == divergence["last_match"] + 1
        assert divergence["diff"], "diff missing"
        assert len(divergence["diff"]) <= MAX_DIFF_ENTRIES
        assert divergence["rings_a"]["events"] is not None

    def test_clean_report_has_no_divergence(self, clean_report):
        assert clean_report["diverged"] is False
        assert "divergence" not in clean_report

    def test_round_trip(self, diverged_report, tmp_path):
        path = write_report(diverged_report, tmp_path / "r.json")
        loaded = load_report(path)
        assert loaded["divergence"]["cycle"] == \
            diverged_report["divergence"]["cycle"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "other/v1"}))
        with pytest.raises(ValueError, match="diverge report"):
            load_report(path)


class TestHtmlPanel:
    def test_diverged_panel_names_the_facts(self, diverged_report,
                                            tmp_path):
        path = write_page(render_run_page(divergence=diverged_report),
                          tmp_path / "r.html")
        html = path.read_text()
        divergence = diverged_report["divergence"]
        assert f"{divergence['cycle']}" in html
        for component in divergence["components"]:
            assert component in html
        assert "State diff" in html
        assert "<script" not in html.lower()  # no-JS contract

    def test_clean_panel_renders(self, clean_report):
        html = render_run_page(divergence=clean_report)
        assert "No fingerprint mismatch" in html


class TestPerfettoExport:
    def test_trace_structure(self, diverged_report, tmp_path):
        path = export_perfetto(diverged_report, tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        trace = doc["traceEvents"]
        phases = {event["ph"] for event in trace}
        assert "M" in phases  # track names
        marker = [e for e in trace if e["name"] == "FIRST DIVERGENCE"]
        assert len(marker) == 1
        assert marker[0]["ts"] == diverged_report["divergence"]["cycle"]
        assert marker[0]["s"] == "g"
        pids = {event["pid"] for event in trace}
        assert pids == {1, 2}

    def test_clean_trace_has_no_marker(self, clean_report, tmp_path):
        path = export_perfetto(clean_report, tmp_path / "t.json")
        trace = json.loads(path.read_text())["traceEvents"]
        assert not [e for e in trace if e["name"] == "FIRST DIVERGENCE"]
