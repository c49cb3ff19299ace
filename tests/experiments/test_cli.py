"""Tests for the experiment CLI."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["paper", "fig99"])

    def test_figures_are_not_verbs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4"])

    def test_diverge_is_not_a_verb(self):
        # repro.diverge is a library; validate goldens localises drift
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diverge", "bisect"])

    def test_defaults(self):
        args = build_parser().parse_args(["paper", "fig4"])
        assert args.action == "fig4"
        assert args.cycles == 400_000
        assert args.per_category == 2
        assert args.seed == 0


class TestCommands:
    def test_fig3_is_instant(self, capsys):
        assert main(["paper", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "insertion" in out

    def test_table2_prints_totals(self, capsys):
        assert main(["paper", "table2"]) == 0
        assert "3792" in capsys.readouterr().out

    def test_run_quick(self, capsys):
        assert main(["run", "--cycles", "60000", "--intensity", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "tcm" in out
        assert "WS" in out

    def test_fig2_quick(self, capsys):
        assert main(["paper", "fig2", "--cycles", "80000"]) == 0
        assert "streaming" in capsys.readouterr().out

    def test_run_with_workload_file(self, capsys, tmp_path):
        from repro.workloads import Workload, save_workload

        path = tmp_path / "w.json"
        save_workload(
            Workload(name="filed", benchmark_names=("mcf", "povray")), path
        )
        assert main(
            ["run", "--cycles", "40000", "--workload-file", str(path),
             "--schedulers", "frfcfs,tcm"]
        ) == 0
        out = capsys.readouterr().out
        assert "filed" in out
        assert "tcm" in out and "parbs" not in out


class TestPaper:
    def test_unknown_figure_lists_the_valid_names(self):
        with pytest.raises(SystemExit) as exc:
            main(["paper", "fig4-quick"])
        message = str(exc.value)
        assert "'fig4-quick'" in message
        for name in ("fig1", "fig8", "table1", "table8", "leakage"):
            assert name in message

    def test_preset_status_reads_what_paper_stored(self, capsys, tmp_path):
        store = str(tmp_path / "fig8")
        flags = ["--cycles", "40000", "--store", store]
        assert main(["paper", "fig8", *flags]) == 0
        assert "Figure 8" in capsys.readouterr().out
        assert main(["campaign", "status", "--preset", "fig8", *flags]) == 0
        rows = dict(
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["done"], ["failed"], ["pending"])
        )
        assert rows == {"done": "2", "failed": "0", "pending": "0"}
