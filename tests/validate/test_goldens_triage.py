"""Failure triage for ``validate goldens``: mismatch table, distinct
exit codes, and where each drifting point left its per-quantum
checkpoint recording."""

import pytest

from repro.validate import (
    EXIT_DRIFT,
    EXIT_MISSING,
    Drift,
    checkpoint_departures,
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


class TestCheckpointDepartures:
    def test_first_checkpoint_in_cycle_order_and_its_components(self):
        key = VALUE_DRIFT.key
        drifts = [
            Drift(key, "checkpoints.100000.dram", "a", "b"),
            Drift(key, "checkpoints.50000.monitor", "a", "b"),
            Drift(key, "checkpoints.50000.rng", "a", "b"),
        ]
        assert checkpoint_departures(drifts) == {
            key: (50_000, ["monitor", "rng"]),
        }

    def test_end_of_run_drift_left_no_checkpoint(self):
        key = "mix-25pct-s7/fcfs/s11"
        drifts = [VALUE_DRIFT,
                  Drift(key, "checkpoints.150000.cpu", "a", "b")]
        assert checkpoint_departures(drifts) == {
            VALUE_DRIFT.key: None,
            key: (150_000, ["cpu"]),
        }

    def test_unrecorded_point_leaves_as_a_whole(self):
        drifts = [NEW_ENTRY, Drift(NEW_ENTRY.key, "checkpoints",
                                   "<absent>", "<new entry>")]
        assert checkpoint_departures(drifts) == {
            NEW_ENTRY.key: (0, ["<entry>"]),
        }
