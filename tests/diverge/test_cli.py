"""CLI surface: ``diverge run | bisect | report`` and exit codes."""

import json

import pytest

from repro.experiments.cli import main

QUICK = ["--cycles", "10000", "--cadence", "2000"]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestDivergeRun:
    def test_run_agrees_with_its_recording_exit_zero(self, capsys,
                                                     tmp_path):
        baseline = tmp_path / "baseline.json"
        assert _exit_code(
            ["diverge", "run", *QUICK, "--record", str(baseline)]
        ) == 0
        assert _exit_code(
            ["diverge", "run", *QUICK, "--baseline", str(baseline)]
        ) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_seed_mismatch_exit_two(self, capsys):
        code = _exit_code(
            ["diverge", "run", *QUICK, "--seed", "11", "--seed-b", "12"]
        )
        assert code == 2
        assert "first divergence" in capsys.readouterr().out

    def test_identical_sides_rejected(self):
        code = _exit_code(["diverge", "run", *QUICK])
        assert code not in (0, 2)

    def test_unknown_action_rejected(self):
        assert _exit_code(["diverge", "explode"]) not in (0, 2)


class TestDivergeBisect:
    def test_bisect_writes_all_artifacts(self, capsys, tmp_path):
        report_json = tmp_path / "report.json"
        report_html = tmp_path / "report.html"
        trace = tmp_path / "trace.json"
        code = _exit_code(
            ["diverge", "bisect", *QUICK, "--seed", "11", "--seed-b", "12",
             "--json-out", str(report_json),
             "--out", str(report_html),
             "--trace-out", str(trace)]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "first divergence at cycle" in out
        report = json.loads(report_json.read_text())
        assert report["divergence"]["exact"]
        assert "first divergence" in report_html.read_text().lower()
        assert json.loads(trace.read_text())

    def test_record_then_compare_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert _exit_code(
            ["diverge", "bisect", *QUICK, "--record", str(baseline)]
        ) == 0
        assert baseline.exists()
        assert _exit_code(
            ["diverge", "run", *QUICK, "--baseline", str(baseline)]
        ) == 0
        code = _exit_code(
            ["diverge", "run", *QUICK, "--seed", "99",
             "--baseline", str(baseline)]
        )
        assert code == 2


class TestDivergeReport:
    @pytest.fixture()
    def saved_report(self, tmp_path):
        path = tmp_path / "report.json"
        _exit_code(
            ["diverge", "bisect", *QUICK, "--seed", "11", "--seed-b", "12",
             "--json-out", str(path)]
        )
        return path

    def test_rerender(self, capsys, saved_report, tmp_path):
        html = tmp_path / "again.html"
        trace = tmp_path / "again_trace.json"
        assert _exit_code(
            ["diverge", "report", "--json-in", str(saved_report),
             "--out", str(html), "--trace-out", str(trace)]
        ) == 0
        assert "first divergence" in capsys.readouterr().out
        assert html.exists() and trace.exists()

    def test_json_in_required(self):
        assert _exit_code(["diverge", "report"]) not in (0, 2)
