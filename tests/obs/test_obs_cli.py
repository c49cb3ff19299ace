"""Tests for the ``obs`` CLI command: one observed run, or a render of
a saved snapshot, a campaign store or a JSONL log."""

import json

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
        assert main(["obs", "--workload-file", pair_file,
                     "--cycles", "40000", "--epoch-cycles", "10000"]) == 0
        out = capsys.readouterr().out
        assert "victim \\ culprit" in out
        assert "reconciliation:" in out
        assert "diagonal_zero=ok" in out
        assert "WS=" in out
        assert "other-inflicted delay by cause" in out
        # the same report carries the epoch samples and explain
        assert "cluster timeline (4 epochs" in out
        assert "decided by" in out

    def test_attribution_is_matrix_only(self, capsys, pair_file):
        # the matrix is a section of the one report: ``obs attribution``
        # is gone, and an STFM run reconciles with STFM's own books
        with pytest.raises(SystemExit, match="unknown action"):
            main(["obs", "attribution"])
        assert main(["obs", "--workload-file", pair_file,
                     "--cycles", "40000", "--scheduler", "stfm"]) == 0
        assert "stfm_shadow_exact=ok" in capsys.readouterr().out

    def test_run_dashboard(self, capsys, pair_file, tmp_path):
        out_file = tmp_path / "run.html"
        assert main(["obs", "--workload-file", pair_file,
                     "--cycles", "40000", "--out", str(out_file)]) == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        html = out_file.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "Interference attribution" in html

    def test_one_run_one_page(self, capsys, monkeypatch, tmp_path):
        """Spans, the epoch sampler, explain and the self-profiler
        observe the same shared run, once; its result equals an
        unobserved run's, and the text report, the page, the collapsed
        stacks, both trace files and the snapshot all come from it."""
        from repro.config import SimConfig
        from repro.experiments.runner import run_shared
        from repro.prof import parse_collapsed
        from repro.sim.system import System
        from repro.telemetry import validate_jsonl
        from repro.workloads import make_intensity_workload

        shared, run = [], System.run

        def counted(system, *args, **kwargs):
            result = run(system, *args, **kwargs)
            if not result.workload.startswith("alone-"):
                shared.append(result)
            return result

        monkeypatch.setattr(System, "run", counted)
        out_file = tmp_path / "run.html"
        snap_file = tmp_path / "snap.json"
        stacks = tmp_path / "stacks.txt"
        stem = tmp_path / "trace"
        assert main(["obs", "--intensity", "0.75",
                     "--cycles", "100000", "--scheduler", "tcm",
                     "--out", str(out_file), "--collapsed", str(stacks),
                     "--trace-out", str(stem),
                     "--json-out", str(snap_file)]) == 0
        monkeypatch.undo()
        assert len(shared) == 1
        result = shared[0]
        workload = make_intensity_workload(0.75, num_threads=24, seed=0)
        assert result == run_shared(workload, "tcm",
                                    SimConfig(run_cycles=100_000))
        html = out_file.read_text()
        assert "interference attribution heatmap" in html
        assert "policy disagreement heatmap" in html
        for label in ("shadow:frfcfs", "shadow:stfm", "shadow:parbs",
                      "shadow:atlas"):
            assert label in html
        # the prof section of the same run: shares, slowest paths, flame
        assert "Where the simulator&#x27;s time went — prof" in html
        assert "Slowest phases" in html
        assert '<svg class="flame"' in html
        collapsed = parse_collapsed(stacks.read_text(encoding="utf-8"))
        assert collapsed and all(path[0] == "run" for path in collapsed)
        text = capsys.readouterr().out
        sections = [line for line in text.splitlines()
                    if line.startswith("== ")]
        assert sections == [
            "== What the machine did — spans and epoch samples ==",
            "== Why each grant went where — explain ==",
            "== Where the simulator's time went — prof ==",
        ]
        prof = text.split(sections[-1])[1]
        assert "slowest phases" in prof
        # component shares, each rounded to 0.1%, sum to 100%
        percents = [float(word[:-1]) for word
                    in prof.split("slowest phases")[0].split()
                    if word.endswith("%")]
        assert percents and abs(sum(percents) - 100.0) < 0.6
        assert (f"(seed 0, {result.cycles} cycles, "
                f"{result.total_requests} requests)") in text
        snapshot = json.loads(snap_file.read_text())
        assert snapshot["decisions"] > 0
        assert f"{snapshot['decisions']} decisions" in text
        events = [json.loads(line) for line in
                  (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert validate_jsonl(tmp_path / "trace.jsonl") == len(events)
        assert events[-1]["ev"] == "run_end"
        assert sum(e["ev"] == "explain" for e in events) == \
            snapshot["decisions"]
        perfetto = json.loads((tmp_path / "trace.json").read_text())
        assert perfetto["traceEvents"]

    def test_trace_paths_keep_their_directory(self, capsys, tmp_path,
                                              monkeypatch):
        # a suffix-less stem in a directory, and a dotted directory
        monkeypatch.chdir(tmp_path)
        for stem in ("./trace/run", "out.d/run"):
            assert main(["obs", "--cycles", "10000",
                         "--trace-out", stem]) == 0
        for path in ("trace/run.jsonl", "trace/run.json",
                     "out.d/run.jsonl", "out.d/run.json"):
            assert (tmp_path / path).is_file(), path
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["out.d", "trace"]
        # --trace-in converts next to the log unless --trace-out says
        (tmp_path / "trace" / "run.json").unlink()
        assert main(["obs", "--trace-in", "trace/run.jsonl"]) == 0
        assert json.loads((tmp_path / "trace" / "run.json").read_text())

    def test_campaign_dashboard_from_store(self, capsys, tmp_path):
        seeded_store(tmp_path)
        out_file = tmp_path / "campaign.html"
        assert main(["obs", "--store",
                     str(tmp_path / "store"), "--out", str(out_file)]) == 0
        html = out_file.read_text()
        assert "<polyline" in html
        assert "atlas" in html

    def test_unknown_action_rejected(self):
        with pytest.raises(SystemExit, match="unknown action"):
            main(["obs", "explode"])
