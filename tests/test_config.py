"""Tests for repro.config — Table 3 defaults and timing derivations."""

import dataclasses

import pytest

from repro.config import (
    ATLASParams,
    DEFAULT_PARAMS,
    DramTimings,
    PARBSParams,
    STFMParams,
    SimConfig,
    TCMParams,
)


class TestDramTimings:
    def test_ddr2_800_derived_values(self):
        t = DramTimings()
        assert t.t_cl == 75      # 15ns at 5GHz
        assert t.t_rcd == 75
        assert t.t_rp == 75
        assert t.burst == 50     # BL/2 = 10ns

    def test_hit_occupancy_is_burst_only(self):
        t = DramTimings()
        assert t.hit_occupancy == t.burst

    def test_closed_occupancy_adds_activate(self):
        t = DramTimings()
        assert t.closed_occupancy == t.t_rcd + t.burst

    def test_conflict_occupancy_adds_precharge_and_activate(self):
        t = DramTimings()
        assert t.conflict_occupancy == t.t_rp + t.t_rcd + t.burst

    def test_occupancy_ordering(self):
        t = DramTimings()
        assert t.hit_occupancy < t.closed_occupancy < t.conflict_occupancy

    def test_paper_round_trip_latencies(self):
        """Table 3: ~200/300/400-cycle uncontended round trips."""
        t = DramTimings()
        assert t.hit_occupancy + t.fixed_overhead == 200
        assert abs(t.closed_occupancy + t.fixed_overhead - 300) <= 25
        assert abs(t.conflict_occupancy + t.fixed_overhead - 400) <= 50

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DramTimings().burst = 10


class TestSimConfig:
    def test_baseline_is_24_core_4_channel(self):
        cfg = SimConfig()
        assert cfg.num_threads == 24
        assert cfg.num_channels == 4
        assert cfg.banks_per_channel == 4

    def test_total_banks(self):
        assert SimConfig().num_banks == 16

    def test_window_and_width_match_table3(self):
        cfg = SimConfig()
        assert cfg.window_size == 128
        assert cfg.ipc_peak == 3.0

    def test_run_spans_multiple_quanta(self):
        cfg = SimConfig()
        assert cfg.run_cycles >= 4 * cfg.quantum_cycles

    def test_with_replaces_fields(self):
        cfg = SimConfig().with_(num_threads=8, run_cycles=1000)
        assert cfg.num_threads == 8
        assert cfg.run_cycles == 1000
        assert cfg.num_channels == 4  # untouched

    def test_with_returns_new_object(self):
        cfg = SimConfig()
        assert cfg.with_(seed=1) is not cfg

    def test_hashable(self):
        assert hash(SimConfig()) == hash(SimConfig())


class TestSchedulerParams:
    def test_tcm_paper_defaults(self):
        p = TCMParams()
        assert p.cluster_thresh == pytest.approx(4 / 24)
        assert p.shuffle_interval == 800
        assert p.shuffle_algo_thresh == 0.1
        assert p.shuffle_mode == "dynamic"

    def test_parbs_batch_cap(self):
        assert PARBSParams().batch_cap == 5

    def test_stfm_fairness_threshold(self):
        assert STFMParams().fairness_threshold == 1.1

    def test_atlas_history_weight(self):
        assert ATLASParams().history_weight == 0.875

    def test_default_params_registry(self):
        assert set(DEFAULT_PARAMS) == {"tcm", "atlas", "parbs", "stfm"}
        assert isinstance(DEFAULT_PARAMS["tcm"], TCMParams)
