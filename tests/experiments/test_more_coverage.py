"""Additional coverage: CLI leakage, figure7 driver, FQM scoring, Table 5."""

import pytest

from repro.config import SimConfig


class TestCliMore:
    def test_leakage_command(self, capsys):
        from repro.experiments.cli import main

        assert main(["paper", "leakage", "--cycles", "60000"]) == 0
        out = capsys.readouterr().out
        assert "rank position" in out

    def test_fig1_quick(self, capsys):
        from repro.experiments.cli import main

        assert main(
            ["paper", "fig1", "--cycles", "40000", "--per-category", "1"]
        ) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestFigure7Driver:
    def test_intensity_keys(self):
        from repro.experiments import figure7

        quick = SimConfig(run_cycles=40_000)
        results = figure7(
            per_category=1, intensities=(0.25, 1.0), config=quick
        )
        assert set(results) == {0.25, 1.0}
        for points in results.values():
            assert len(points) == 5


class TestScoreWithFQM:
    def test_fqm_in_evaluation_pipeline(self):
        from repro.experiments import evaluate_workload
        from repro.workloads.mixes import Workload

        cfg = SimConfig(run_cycles=40_000)
        workload = Workload(name="w", benchmark_names=("mcf", "povray"))
        scores = evaluate_workload(workload, ("fqm",), cfg)
        assert scores["fqm"].weighted_speedup > 0


class TestTable5Integration:
    def test_workload_a_runs_under_tcm(self):
        from repro.schedulers import make_scheduler
        from repro.sim import System
        from repro.workloads.mixes import TABLE5_WORKLOADS

        cfg = SimConfig(run_cycles=50_000)
        result = System(
            TABLE5_WORKLOADS["A"], make_scheduler("tcm"), cfg, seed=0
        ).run()
        assert len(result.threads) == 24
        assert all(t.instructions > 0 for t in result.threads)
