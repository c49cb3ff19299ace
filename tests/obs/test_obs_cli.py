"""Tests for the ``obs`` CLI command (report | attribution | dashboard)."""

import pytest

from repro.experiments.cli import main
from repro.workloads import (
    RANDOM_ACCESS,
    STREAMING,
    save_workload,
    workload_from_specs,
)

from tests.obs.test_aggregate import seeded_store


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    save_workload(
        workload_from_specs("pair", [RANDOM_ACCESS, STREAMING]), path
    )
    return str(path)


class TestObsCli:
    def test_report(self, capsys, pair_file):
        assert main(["obs", "report", "--workload-file", pair_file,
                     "--cycles", "40000"]) == 0
        out = capsys.readouterr().out
        assert "victim \\ culprit" in out
        assert "reconciliation:" in out
        assert "diagonal_zero=ok" in out
        assert "WS=" in out
        assert "other-inflicted delay by cause" in out

    def test_attribution_is_matrix_only(self, capsys, pair_file):
        assert main(["obs", "attribution", "--workload-file", pair_file,
                     "--cycles", "40000", "--scheduler", "stfm"]) == 0
        out = capsys.readouterr().out
        assert "stfm_shadow_exact=ok" in out
        assert "other-inflicted delay by cause" not in out

    def test_run_dashboard(self, capsys, pair_file, tmp_path):
        out_file = tmp_path / "run.html"
        assert main(["obs", "dashboard", "--workload-file", pair_file,
                     "--cycles", "40000", "--out", str(out_file)]) == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        html = out_file.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "Interference attribution" in html

    def test_one_run_one_page(self, capsys, monkeypatch, tmp_path):
        """Spans, the epoch sampler and explain observe the same shared
        run, once; its result equals an unobserved run's, and its page
        carries both the attribution and the disagreement heatmaps."""
        from repro.config import SimConfig
        from repro.experiments.runner import run_shared
        from repro.sim.system import System
        from repro.workloads import make_intensity_workload

        shared, run = [], System.run

        def counted(system, *args, **kwargs):
            result = run(system, *args, **kwargs)
            if not result.workload.startswith("alone-"):
                shared.append(result)
            return result

        monkeypatch.setattr(System, "run", counted)
        out_file = tmp_path / "run.html"
        assert main(["obs", "dashboard", "--intensity", "0.75",
                     "--cycles", "20000", "--scheduler", "tcm",
                     "--out", str(out_file)]) == 0
        monkeypatch.undo()
        assert len(shared) == 1
        workload = make_intensity_workload(0.75, num_threads=24, seed=0)
        assert shared[0] == run_shared(workload, "tcm",
                                       SimConfig(run_cycles=20_000))
        html = out_file.read_text()
        assert "interference attribution heatmap" in html
        assert "policy disagreement heatmap" in html
        for label in ("shadow:frfcfs", "shadow:stfm", "shadow:parbs",
                      "shadow:atlas"):
            assert label in html

    def test_campaign_dashboard_from_store(self, capsys, tmp_path):
        seeded_store(tmp_path)
        out_file = tmp_path / "campaign.html"
        assert main(["obs", "dashboard", "--store",
                     str(tmp_path / "store"), "--out", str(out_file)]) == 0
        html = out_file.read_text()
        assert "<polyline" in html
        assert "atlas" in html

    def test_unknown_action_rejected(self):
        with pytest.raises(SystemExit, match="unknown action"):
            main(["obs", "explode"])
