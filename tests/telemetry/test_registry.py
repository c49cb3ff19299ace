"""Tests for the metrics registry."""

import pytest

from repro.telemetry import MetricsRegistry


class TestProviders:
    def test_polled_not_copied(self):
        reg = MetricsRegistry()
        state = {"hits": 0}
        reg.register("hits", lambda: state["hits"])
        state["hits"] = 9
        assert reg.value("hits") == 9

    def test_labels_distinguish(self):
        reg = MetricsRegistry()
        reg.register("bank.hits", lambda: 1, {"ch": 0, "bank": 0})
        reg.register("bank.hits", lambda: 2, {"ch": 0, "bank": 1})
        pairs = reg.collect("bank.hits")
        assert len(pairs) == 2
        assert reg.sum("bank.hits") == 3
        assert reg.value("bank.hits", {"ch": 0, "bank": 1}) == 2

    def test_duplicate_registration_raises(self):
        reg = MetricsRegistry()
        reg.register("m", lambda: 0, {"tid": 1})
        with pytest.raises(ValueError):
            reg.register("m", lambda: 0, {"tid": 1})

    def test_missing_metric_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("nope")


class TestSnapshot:
    def test_flat_keys_include_labels(self):
        reg = MetricsRegistry()
        reg.register("hits", lambda: 5, {"ch": 0, "bank": 2})
        reg.register("quanta", lambda: 1)
        snap = reg.snapshot()
        assert snap["hits{bank=2,ch=0}"] == 5
        assert snap["quanta"] == 1

    def test_names_sorted_distinct(self):
        reg = MetricsRegistry()
        reg.register("b", lambda: 0, {"tid": 0})
        reg.register("b", lambda: 0, {"tid": 1})
        reg.register("a", lambda: 0)
        assert reg.names() == ["a", "b"]


class TestReset:
    def test_reset_allows_reregistration(self):
        reg = MetricsRegistry()
        reg.register("m", lambda: 1)
        reg.reset()
        assert len(reg) == 0
        reg.register("m", lambda: 2)  # no ValueError after full reset
        assert reg.value("m") == 2
