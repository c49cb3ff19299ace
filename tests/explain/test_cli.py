"""CLI surface of explain: the explain sections of the ``obs`` report
and page, its snapshot (``--json-out`` / ``--json-in``) and trace."""

import json

import pytest

from repro.experiments.cli import main

QUICK = ["--cycles", "20000", "--seed", "1"]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExplainRun:
    def test_run_prints_the_report(self, capsys):
        assert _exit_code(
            ["obs", *QUICK, "--shadows", "frfcfs"]
        ) in (0, None)
        out = capsys.readouterr().out
        assert "shadow:frfcfs" in out
        assert "decided by" in out.lower()

    def test_default_shadows_are_the_evaluated_set(self, capsys):
        assert _exit_code(["obs", *QUICK]) in (0, None)
        out = capsys.readouterr().out
        # tcm primary: the other four paper policies ride shadow
        for label in ("shadow:frfcfs", "shadow:stfm", "shadow:parbs",
                      "shadow:atlas"):
            assert label in out

    def test_unknown_action_rejected(self):
        # explain is no verb of its own: ``obs`` observes the run
        assert _exit_code(["explain", "run", *QUICK]) not in (0, None)
        assert _exit_code(["obs", "explode"]) not in (0, None)

    def test_dashboard_is_an_obs_action(self):
        # the run page draws explain's section: one page, one run
        assert _exit_code(["explain", "dashboard"]) not in (0, None)
        assert _exit_code(["obs", "dashboard"]) not in (0, None)


class TestExplainArtifacts:
    def test_dashboard_and_snapshot(self, capsys, tmp_path):
        html_out = tmp_path / "explain.html"
        json_out = tmp_path / "explain.json"
        code = _exit_code(
            ["obs", *QUICK, "--shadows", "frfcfs",
             "--out", str(html_out), "--json-out", str(json_out)]
        )
        assert code in (0, None)
        html = html_out.read_text()
        assert "<svg" in html and "<script" not in html
        assert "Policy disagreement" in html and "shadow:frfcfs" in html
        snapshot = json.loads(json_out.read_text())
        assert snapshot["decisions"] > 0
        assert snapshot["shadows"][0]["label"] == "shadow:frfcfs"

    def test_report_from_saved_snapshot(self, capsys, tmp_path):
        json_out = tmp_path / "explain.json"
        _exit_code(["obs", *QUICK, "--shadows", "frfcfs",
                    "--json-out", str(json_out)])
        live = capsys.readouterr().out
        code = _exit_code(["obs", "--json-in", str(json_out)])
        assert code in (0, None)
        saved = capsys.readouterr().out
        assert "shadow:frfcfs" in saved
        # the saved snapshot renders the live run's explain section
        explain = saved[saved.index("== Why each grant"):]
        assert explain in live

    def test_dashboard_from_saved_snapshot(self, capsys, tmp_path):
        json_out = tmp_path / "explain.json"
        html_out = tmp_path / "explain.html"
        _exit_code(["obs", *QUICK, "--shadows", "frfcfs",
                    "--json-out", str(json_out)])
        capsys.readouterr()
        code = _exit_code(
            ["obs", "--json-in", str(json_out), "--out", str(html_out)]
        )
        assert code in (0, None)
        html = html_out.read_text()
        assert "<svg" in html and "shadow:frfcfs" in html
        # a snapshot alone carries no spans: no attribution section
        assert "Interference attribution" not in html

    def test_trace_out_writes_jsonl_and_perfetto(self, capsys, tmp_path):
        # PAR-BS primary under full intensity: batch marking diverges
        # from FR-FCFS order immediately, so the trace is guaranteed to
        # carry disagreement counters (TCM at the default quantum never
        # re-clusters within a short CLI run and degenerates to FR-FCFS)
        base = tmp_path / "trace"
        code = _exit_code(
            ["obs", *QUICK, "--scheduler", "parbs",
             "--intensity", "1.0", "--shadows", "frfcfs",
             "--trace-out", str(base) + ".json"]
        )
        assert code in (0, None)
        jsonl = (tmp_path / "trace.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in jsonl]
        assert any(e["ev"] == "explain" for e in events)
        trace = json.loads((tmp_path / "trace.json").read_text())
        names = [t.get("name", "") for t in trace["traceEvents"]]
        assert "disagreements shadow:frfcfs" in names


class TestTelemetryExplainFlag:
    def test_report_gains_the_forensics_tables(self, capsys):
        # no --explain flag: explain always rides the observed run
        assert _exit_code(["obs", *QUICK, "--explain"]) not in (0, None)
        capsys.readouterr()
        code = _exit_code(
            ["obs", *QUICK, "--shadows", "frfcfs", "--epoch-cycles",
             "10000"]
        )
        assert code in (0, None)
        out = capsys.readouterr().out
        # the epoch-sample tables are still there...
        assert "workload" in out and "cluster timeline" in out
        # ...and the explain tables follow them
        assert "shadow:frfcfs" in out
        assert "decided by" in out.lower()
