"""Failure triage for ``validate goldens``: mismatch table, distinct
exit codes, and the forensics hand-off to :mod:`repro.diverge`'s
recorded checkpoints."""

import json

import pytest

from repro.experiments.cli import _goldens_forensics
from repro.validate import (
    EXIT_DRIFT,
    EXIT_MISSING,
    Drift,
    classify_drifts,
    drift_point_rows,
    drifts_exit_code,
    is_structural,
    parse_golden_key,
)

VALUE_DRIFT = Drift("mix-50pct-s7/tcm/s11", "threads[3].ipc", 0.5, 0.6)
NEW_ENTRY = Drift("mix-25pct-s7/fcfs/s11", "", "<absent>", "<new entry>")
GONE_ENTRY = Drift("mix-100pct-s7/stfm/s11", "", "<entry>", "<absent>")
NEW_FIELD = Drift("mix-50pct-s7/tcm/s11", "row_hits", "<absent>", 123)

pytestmark = pytest.mark.validate


class TestKeyParsing:
    def test_plain_key(self):
        assert parse_golden_key("mix-50pct-s7/tcm/s11") == (
            "mix-50pct-s7", "tcm", "11"
        )

    def test_unparseable_key_degrades(self):
        mix, scheduler, seed = parse_golden_key("garbage")
        assert (scheduler, seed) == ("", "")


class TestClassification:
    def test_structural_markers(self):
        assert not is_structural(VALUE_DRIFT)
        assert is_structural(NEW_ENTRY)
        assert is_structural(GONE_ENTRY)
        assert is_structural(NEW_FIELD)

    def test_any_value_drift_dominates(self):
        assert classify_drifts([NEW_ENTRY, VALUE_DRIFT]) == "drift"
        assert classify_drifts([VALUE_DRIFT]) == "drift"

    def test_pure_structural_is_missing(self):
        assert classify_drifts([NEW_ENTRY, GONE_ENTRY, NEW_FIELD]) \
            == "missing"

    def test_exit_codes_distinct(self):
        assert drifts_exit_code([]) == 0
        assert drifts_exit_code([VALUE_DRIFT, NEW_ENTRY]) == EXIT_DRIFT
        assert drifts_exit_code([NEW_ENTRY]) == EXIT_MISSING
        assert EXIT_DRIFT != EXIT_MISSING
        assert 1 not in (EXIT_DRIFT, EXIT_MISSING)  # 1 = generic failure


class TestMismatchTable:
    def test_rows_name_point_and_values(self):
        rows = drift_point_rows([VALUE_DRIFT, NEW_ENTRY])
        assert rows[0] == [
            "mix-50pct-s7", "tcm", "11", "threads[3].ipc", "0.5", "0.6",
        ]
        assert rows[1][3] == "<entry>"


class TestForensicsHook:
    def test_unreconstructable_key_writes_drift_list_only(
        self, capsys, tmp_path
    ):
        weird = Drift("custom/thing", "ipc", 1, 2)
        _goldens_forensics([weird], tmp_path)
        out = capsys.readouterr().out
        assert "drift list only" in out
        listed = json.loads((tmp_path / "goldens_drift.json").read_text())
        assert listed[0]["field"] == "ipc"
        assert not (tmp_path / "diverge_report.json").exists()

    def test_prefers_value_drift_over_structural(self, capsys, tmp_path,
                                                 monkeypatch):
        captured = {}

        def fake_spec(key):
            captured.setdefault("keys", []).append(key)
            raise ValueError("stop here")

        import repro.diverge

        monkeypatch.setattr(
            repro.diverge, "spec_for_golden_key", fake_spec
        )
        _goldens_forensics([NEW_ENTRY, VALUE_DRIFT], tmp_path)
        assert captured["keys"] == [VALUE_DRIFT.key]

    def test_replays_the_point_against_its_recording(self, capsys,
                                                     tmp_path):
        _goldens_forensics([VALUE_DRIFT], tmp_path)
        out = capsys.readouterr().out
        assert "every recorded checkpoint matches" in out
        report = json.loads((tmp_path / "diverge_report.json").read_text())
        assert report["diverged"] is False

    def test_reports_first_divergent_checkpoint_and_component(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.validate

        recordings = repro.validate.load_golden_checkpoints()
        recording = recordings[VALUE_DRIFT.key]
        recording["checkpoints"]["100000"]["monitor"] = "0" * 16
        monkeypatch.setattr(repro.validate, "load_golden_checkpoints",
                            lambda: recordings)
        _goldens_forensics([VALUE_DRIFT], tmp_path)
        assert "first divergence at window (50000, 100000]: monitor " \
            "differ" in capsys.readouterr().out
        report = json.loads((tmp_path / "diverge_report.json").read_text())
        assert report["divergence"]["cycle"] == 100_000
        assert report["divergence"]["components"] == ["monitor"]
        # the HTML artifact is the run page's divergence section
        page = (tmp_path / "diverge_report.html").read_text()
        assert "Component fingerprints" in page and "monitor" in page
