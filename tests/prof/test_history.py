"""Benchmark-history store: records and verdicts."""

import json
import subprocess

import pytest

from repro.prof import history


def _record(bench="engine_speed[tcm]", family="engine_speed",
            rounds=(0.10, 0.11, 0.12), machine=None, **metrics):
    record = history.make_record(bench, family, list(rounds), **metrics)
    if machine is not None:
        record["machine"] = machine
    return record


class TestRecords:
    def test_make_record_fields(self):
        record = _record(rounds=(0.3, 0.1, 0.2), requests=1234,
                         extra={"component_shares": {"cpu": 0.5}})
        assert record["bench"] == "engine_speed[tcm]"
        assert record["family"] == "engine_speed"
        assert record["wall_s"]["median"] == 0.2
        assert record["wall_s"]["best"] == 0.1
        assert record["wall_s"]["rounds"] == [0.3, 0.1, 0.2]
        assert record["requests"] == 1234
        assert record["extra"] == {"component_shares": {"cpu": 0.5}}
        assert record["machine"] == history.machine_fingerprint()
        assert len(record["recorded_on"]) == 10  # date only

    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.json"
        assert history.load(path) == []  # missing file is empty history
        assert history.append(path, _record()) == 1
        assert history.append(path, _record(bench="engine_speed[fcfs]")) == 2
        records = history.load(path)
        assert [r["bench"] for r in records] == [
            "engine_speed[tcm]", "engine_speed[fcfs]"
        ]
        doc = json.loads(path.read_text())
        assert doc["format"] == history.FORMAT

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something/else", "records": []}')
        with pytest.raises(ValueError):
            history.load(path)

    def test_load_names_only_the_v1_format(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"min_s": 0.106, "requests": 4994}))
        with pytest.raises(ValueError) as error:
            history.load(path)
        assert str(error.value) == f"{path}: not a repro.prof.history/v1 file"

    def test_latest_and_benches(self):
        records = [_record(rounds=(0.2,)), _record(rounds=(0.1,)),
                   _record(bench="obs_overhead[tcm]", family="obs_overhead")]
        assert history.latest(records, "engine_speed[tcm]")[
            "wall_s"]["median"] == 0.1
        assert history.latest(records, "nope") is None
        assert history.benches(records) == [
            "engine_speed[tcm]", "obs_overhead[tcm]"
        ]


class TestCompare:
    def test_regression_detected(self):
        verdict = history.compare(_record(rounds=(0.10,)),
                                  _record(rounds=(0.12,)), tolerance=1.05)
        assert verdict.verdict == history.VERDICT_REGRESSION
        assert verdict.failed and verdict.comparable
        assert verdict.ratio == pytest.approx(1.2)

    def test_improvement_detected(self):
        verdict = history.compare(_record(rounds=(0.12,)),
                                  _record(rounds=(0.10,)), tolerance=1.05)
        assert verdict.verdict == history.VERDICT_IMPROVEMENT
        assert not verdict.failed

    def test_within_tolerance_is_ok(self):
        verdict = history.compare(_record(rounds=(0.100,)),
                                  _record(rounds=(0.102,)), tolerance=1.05)
        assert verdict.verdict == history.VERDICT_OK
        assert not verdict.failed

    def test_tolerance_defaults_to_baseline_record(self):
        baseline = _record(rounds=(0.10,), tolerance=1.5)
        verdict = history.compare(baseline, _record(rounds=(0.14,)))
        assert verdict.verdict == history.VERDICT_OK
        assert verdict.tolerance == 1.5

    def test_fingerprint_mismatch_warns_never_fails(self):
        other = dict(history.machine_fingerprint(), machine="riscv128")
        verdict = history.compare(_record(machine=other),
                                  _record(rounds=(9.9,)))
        assert verdict.verdict == history.VERDICT_MISMATCH
        assert not verdict.comparable
        assert not verdict.failed
        assert verdict.ratio is None

    def test_same_machine(self):
        fp = history.machine_fingerprint()
        assert history.same_machine(fp, dict(fp))
        assert not history.same_machine(fp, dict(fp, cpu_count=999))
        assert not history.same_machine(fp, None)


class TestCompareHistories:
    def test_same_path_compares_last_two(self, tmp_path):
        path = tmp_path / "hist.json"
        history.append(path, _record(rounds=(0.10,)))
        history.append(path, _record(rounds=(0.20,)))
        verdicts = history.compare_histories(path, path, tolerance=1.05)
        assert len(verdicts) == 1
        assert verdicts[0].verdict == history.VERDICT_REGRESSION

    def test_single_record_is_not_compared(self, tmp_path):
        path = tmp_path / "hist.json"
        history.append(path, _record())
        assert history.compare_histories(path, path) == []

    def test_cross_path_latest_vs_latest(self, tmp_path):
        base, new = tmp_path / "base.json", tmp_path / "new.json"
        history.append(base, _record(rounds=(0.20,)))
        history.append(new, _record(rounds=(0.10,)))
        history.append(new, _record(bench="only_new[x]", family="x"))
        verdicts = history.compare_histories(base, new, tolerance=1.05)
        assert len(verdicts) == 1  # only overlapping benches compared
        assert verdicts[0].verdict == history.VERDICT_IMPROVEMENT


class TestEnvironment:
    def test_strict_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
        assert not history.strict_mode()
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        assert history.strict_mode()

    def test_git_sha_in_this_repo(self):
        sha = history.git_sha()
        assert sha is None or (len(sha) == 40
                               and all(c in "0123456789abcdef" for c in sha))


class TestGitDirty:
    """``git_dirty`` marks records measured on uncommitted code."""

    @staticmethod
    def git(cwd, *args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=cwd, check=True, capture_output=True)

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        repo = tmp_path / "repo"
        repo.mkdir()
        self.git(repo, "init", "-q")
        (repo / "code.py").write_text("x = 1\n")
        (repo / "sub").mkdir()
        (repo / "sub" / "more.py").write_text("z = 1\n")
        (repo / history.DEFAULT_HISTORY).write_text("{}\n")
        self.git(repo, "add", ".")
        self.git(repo, "commit", "-q", "-m", "init")
        return repo

    def test_clean_tree(self, repo):
        assert history.git_dirty(cwd=str(repo)) is False

    def test_edited_tracked_file(self, repo):
        (repo / "code.py").write_text("x = 2\n")
        assert history.git_dirty(cwd=str(repo)) is True
        # the whole tree counts, not only the directory asked from
        assert history.git_dirty(cwd=str(repo / "sub")) is True

    def test_untracked_and_history_files_do_not_count(self, repo):
        (repo / "new.py").write_text("y = 1\n")
        (repo / history.DEFAULT_HISTORY).write_text('{"records": []}\n')
        assert history.git_dirty(cwd=str(repo)) is False

    def test_no_repo(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        outside = tmp_path / "plain"
        outside.mkdir()
        assert history.git_dirty(cwd=str(outside)) is None
        assert history.git_sha(cwd=str(outside)) is None

    def test_record_and_table_mark_a_dirty_sha(self):
        record = history.make_record("b", "f", [1.0])
        assert record["git_dirty"] in (True, False, None)
        sha = "33bea3ac" + "0" * 32
        assert history.short_sha({"git_sha": sha}) == "33bea3ac0"
        assert history.short_sha({"git_sha": sha, "git_dirty": False}) \
            == "33bea3ac0"
        assert history.short_sha({"git_sha": sha, "git_dirty": True}) \
            == "33bea3ac*"
        assert history.short_sha({}) == "?"
