"""Tests for the run-length presets of repro.experiments.presets."""

from repro.experiments.presets import (
    default_config,
    paper_scale_config,
    quick_config,
)


class TestPresets:
    def test_quick_is_small(self):
        assert quick_config().run_cycles < default_config().run_cycles

    def test_paper_scale_values(self):
        cfg = paper_scale_config()
        assert cfg.quantum_cycles == 1_000_000
        assert cfg.run_cycles == 100_000_000

    def test_overrides(self):
        cfg = quick_config(num_threads=8)
        assert cfg.num_threads == 8
