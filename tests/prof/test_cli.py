"""CLI smoke tests for ``prof history|compare`` and for the prof
section of ``obs``, which profiles the run it observes."""

import pytest

from repro.experiments.cli import main
from repro.prof import history, parse_collapsed

#: ``obs`` of a 24-thread run with every shadow: about 0.1 s of CPU
#: time, so the profile holds some 20 samples
FAST = ["obs", "--cycles", "25000", "--intensity", "0.75"]


def _seed_history(path, rounds_pairs):
    for rounds in rounds_pairs:
        history.append(path, history.make_record(
            "engine_speed[tcm]", "engine_speed", list(rounds),
            events_per_sec=100_000,
        ))


class TestProfRun:
    def test_prints_component_table(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        section = out.split("== Where the simulator's time went — prof ==")
        assert len(section) == 2
        assert "component  share" in section[1]
        assert "slowest phases" in section[1]
        assert "run;engine.advance" in section[1]

    def test_unknown_action_rejected(self):
        with pytest.raises(SystemExit, match="unknown action"):
            main(["prof", "juggle"])
        # a run is profiled by obs now
        for action in ("run", "flame", "dashboard"):
            with pytest.raises(SystemExit, match="unknown action"):
                main(["prof", action])


class TestProfFlame:
    def test_writes_svg_and_collapsed(self, capsys, tmp_path):
        page = tmp_path / "run.html"
        collapsed = tmp_path / "stacks.txt"
        assert main([*FAST, "--out", str(page),
                     "--collapsed", str(collapsed)]) == 0
        html = page.read_text(encoding="utf-8")
        assert '<svg class="flame"' in html
        text = collapsed.read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("run")
        assert all(path[0] == "run" for path in parse_collapsed(text))


class TestProfHistory:
    def test_lists_records(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        _seed_history(path, [(0.10, 0.11)])
        assert main(["prof", "history", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine_speed[tcm]" in out
        assert "1 records" in out


class TestProfCompare:
    def test_in_file_trajectory(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        _seed_history(path, [(0.10,), (0.25,)])
        assert main(["prof", "compare", "--history", str(path)]) == 0
        assert "regression" in capsys.readouterr().out

    def test_strict_regression_exits_nonzero(self, tmp_path):
        path = tmp_path / "hist.json"
        _seed_history(path, [(0.10,), (0.25,)])
        with pytest.raises(SystemExit):
            main(["prof", "compare", "--history", str(path), "--strict"])

    def test_improvement_passes_strict(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        _seed_history(path, [(0.25,), (0.10,)])
        assert main(["prof", "compare", "--history", str(path),
                     "--strict"]) == 0
        assert "improvement" in capsys.readouterr().out

    def test_nothing_to_compare(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        _seed_history(path, [(0.10,)])
        assert main(["prof", "compare", "--history", str(path)]) == 0
        assert "no overlapping benches" in capsys.readouterr().out


class TestProfDashboard:
    def test_writes_page_with_history(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        _seed_history(path, [(0.10,), (0.11,)])
        out = tmp_path / "perf.html"
        assert main([*FAST, "--history", str(path),
                     "--out", str(out)]) == 0
        html = out.read_text(encoding="utf-8")
        assert "<svg" in html  # embedded flame graph + sparklines
        assert "engine_speed[tcm]" in html

    def test_works_without_history(self, capsys, tmp_path):
        out = tmp_path / "perf.html"
        assert main([*FAST, "--history", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == 0
        assert "</html>" in out.read_text(encoding="utf-8")


class TestDirtyShas:
    """Records measured on a modified tree show their SHA with a ``*``."""

    @staticmethod
    def seed(path):
        for sha, dirty in (("a" * 40, False), ("33bea3ac" + "0" * 32, True)):
            record = history.make_record("engine_speed[tcm]", "engine_speed",
                                         [0.1])
            record.update(git_sha=sha, git_dirty=dirty)
            history.append(path, record)

    def test_history_table(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        self.seed(path)
        assert main(["prof", "history", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "aaaaaaaaa " in out
        assert "33bea3ac* " in out

    def test_dashboard_table(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        self.seed(path)
        out = tmp_path / "perf.html"
        assert main([*FAST, "--history", str(path),
                     "--out", str(out)]) == 0
        html = out.read_text(encoding="utf-8")
        assert "@ 33bea3ac*:" in html and "@ aaaaaaaaa:" in html
