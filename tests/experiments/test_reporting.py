"""Tests for repro.experiments.reporting."""

import pytest

from repro.experiments.reporting import format_scatter, format_table


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(["name", "value"], [["a", 1.234], ["bb", 2.0]])
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in text
        assert "2.00" in text

    def test_title_prepended(self):
        text = format_table(["x"], [[1]], title="Table 9")
        assert text.splitlines()[0] == "Table 9"

    def test_precision(self):
        text = format_table(["x"], [[1.23456]], precision=4)
        assert "1.2346" in text

    def test_column_count_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_wide_cells_stretch_columns(self):
        text = format_table(["x"], [["a-very-long-cell"]])
        header, rule, row = text.splitlines()
        assert len(rule) == len("a-very-long-cell")

    def test_integers_not_decorated(self):
        text = format_table(["x"], [[42]])
        assert "42" in text and "42.00" not in text

    def test_none_prints_as_dash(self):
        header, rule, row = format_table(["x", "y"], [[None, 1]]).splitlines()
        assert row.split() == ["-", "1"]


class TestFormatScatter:
    def test_points_rendered(self):
        text = format_scatter([("tcm", 14.2, 5.9)], title="fig")
        assert "tcm" in text
        assert "14.200" in text
        assert "5.900" in text

    def test_custom_labels(self):
        text = format_scatter([], x_label="WS", y_label="MS")
        assert "WS" in text and "MS" in text
