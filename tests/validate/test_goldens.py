"""Tests for the golden-run regression harness.

The expensive acceptance check — running every pinned point and
requiring zero drift against both committed golden files — lives here
too; it doubles as the proof that the committed goldens are in sync
with the simulator at every commit.  It reads the one run of each
point that the ``golden_pass`` fixture makes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.sim import System
from repro.validate import (
    EXIT_DRIFT,
    EXIT_MISSING,
    GOLDEN_CHECKPOINTS_PATH,
    GOLDEN_PATH,
    GOLDEN_SCHEDULERS,
    compare_fingerprints,
    golden_drifts,
    golden_key,
    golden_mixes,
    load_golden_files,
    load_goldens,
    save_goldens,
)
from repro.validate import goldens
from repro.validate.goldens import GOLDEN_SEEDS, GOLDEN_VERSION, golden_keys

pytestmark = pytest.mark.validate

REPO = Path(__file__).resolve().parents[2]


def _validate_goldens(*args) -> int:
    """``validate goldens ARGS`` in process; its exit code."""
    try:
        return main(["validate", "goldens", *args])
    except SystemExit as exc:
        return exc.code


def _copy_goldens(directory: Path) -> Path:
    """Both committed golden files copied into ``directory``; the
    matrix copy's path."""
    shutil.copy(GOLDEN_CHECKPOINTS_PATH, directory)
    return Path(shutil.copy(GOLDEN_PATH, directory))


class TestGoldenFile:
    def test_committed_goldens_load(self):
        matrix = load_goldens()
        mixes = golden_mixes()
        assert len(matrix) == (
            len(GOLDEN_SCHEDULERS) * len(mixes) * len(GOLDEN_SEEDS)
        )
        for workload in mixes:
            for scheduler in GOLDEN_SCHEDULERS:
                for seed in GOLDEN_SEEDS:
                    assert golden_key(workload, scheduler, seed) in matrix

    def test_every_entry_has_headline_metrics(self):
        for key, entry in load_goldens().items():
            assert entry["total_requests"] > 0, key
            assert entry["weighted_speedup"] > 0, key
            assert entry["maximum_slowdown"] >= 1.0, key

    def test_version_mismatch_rejected(self, tmp_path):
        document = json.loads(GOLDEN_PATH.read_text())
        document["version"] = GOLDEN_VERSION + 1
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="version"):
            load_goldens(stale)

    def test_save_load_round_trip(self, tmp_path):
        matrix = load_goldens()
        path = save_goldens(matrix, tmp_path / "copy.json")
        assert load_goldens(path) == matrix


class TestUnreadableGoldens:
    """A missing or stale golden file is an input error: one line
    naming the file and the update command, exit 4, no traceback and
    no simulation."""

    def _one_line(self, capsys, path):
        out = capsys.readouterr().out
        assert out.count("\n") == 1, out
        assert str(path) in out
        assert "validate goldens --update" in out
        return out

    def test_missing_matrix(self, tmp_path, capsys):
        missing = tmp_path / "golden_matrix.json"
        assert _validate_goldens("--goldens-path", str(missing)) \
            == EXIT_MISSING
        self._one_line(capsys, missing)

    def test_stale_matrix(self, tmp_path, capsys):
        path = _copy_goldens(tmp_path)
        document = json.loads(path.read_text())
        document["version"] = GOLDEN_VERSION + 1
        path.write_text(json.dumps(document))
        assert _validate_goldens("--goldens-path", str(path)) \
            == EXIT_MISSING
        assert "version" in self._one_line(capsys, path)

    def test_truncated_checkpoints(self, tmp_path, capsys):
        path = _copy_goldens(tmp_path)
        recording = tmp_path / GOLDEN_CHECKPOINTS_PATH.name
        recording.write_text(recording.read_text()[:1000])
        assert _validate_goldens("--goldens-path", str(path)) \
            == EXIT_MISSING
        assert "not JSON" in self._one_line(capsys, recording)

    def test_missing_checkpoints_beside_the_matrix(self, tmp_path, capsys):
        path = Path(shutil.copy(GOLDEN_PATH, tmp_path))
        assert _validate_goldens("--goldens-path", str(path)) \
            == EXIT_MISSING
        self._one_line(capsys, tmp_path / GOLDEN_CHECKPOINTS_PATH.name)


@pytest.fixture(scope="module")
def update_run(tmp_path_factory):
    """``validate goldens --update --goldens-path TMP/golden_matrix.json``:
    the matrix path it wrote and the workload of every non-alone
    ``System.start_run`` it made."""
    path = tmp_path_factory.mktemp("goldens") / GOLDEN_PATH.name
    started = []
    start_run = System.start_run

    def counted(system):
        if not system.workload.name.startswith("alone-"):
            started.append(system.workload.name)
        start_run(system)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(System, "start_run", counted)
        assert _validate_goldens("--update", "--goldens-path",
                                 str(path)) == 0
    return path, started


@pytest.mark.slow
class TestGoldenRegression:
    def test_no_drift_against_committed_goldens(self, golden_pass):
        """THE regression gate: the simulator reproduces every pinned
        fingerprint exactly, at the end of each run and at every
        quantum."""
        drifts = golden_drifts(load_golden_files(), golden_pass)
        assert drifts == [], [str(d) for d in drifts[:10]]

    def test_drift_detected_and_script_fails(self, tmp_path, golden_pass):
        """A perturbed golden file must make ``validate goldens`` exit
        non-zero and name the drifted field."""
        document = json.loads(GOLDEN_PATH.read_text())
        key = next(iter(sorted(document["matrix"])))
        document["matrix"][key]["total_requests"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(document))
        shutil.copy(GOLDEN_CHECKPOINTS_PATH, tmp_path)

        fresh, _ = golden_pass
        drifts = compare_fingerprints(
            load_goldens(tampered), fresh
        )
        assert any(
            d.key == key and d.path == "total_requests" for d in drifts
        )

        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "validate",
             "goldens", "--goldens-path", str(tampered)],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        # distinct failure codes: 3 = value drift (this case), 4 =
        # matrix structure changed (see repro.validate.goldens)
        assert proc.returncode == 3, proc.stderr
        assert "total_requests" in proc.stdout
        assert "golden mismatches by point" in proc.stdout
        # the run kept to its recording: the drift is in the results
        assert f"{key}: every checkpoint matched" in proc.stdout

    def test_planted_checkpoint_drift_is_localised(
            self, tmp_path, capsys, monkeypatch, golden_pass):
        """One changed component hash at one point's second checkpoint,
        beside an unchanged matrix: exit 3, naming the point, the
        checkpoint and the component.  The check compares the session's
        one pass of the golden points."""
        monkeypatch.setattr(goldens, "compute_golden_matrix",
                            lambda progress=False: golden_pass)
        path = _copy_goldens(tmp_path)
        recording = tmp_path / GOLDEN_CHECKPOINTS_PATH.name
        document = json.loads(recording.read_text())
        key = "mix-50pct-s7/tcm/s11"
        checkpoints = document["points"][key]["checkpoints"]
        second = sorted(checkpoints, key=int)[1]
        checkpoints[second]["monitor"] = "0" * 16
        recording.write_text(json.dumps(document))

        assert _validate_goldens("--goldens-path", str(path)) == EXIT_DRIFT
        out = capsys.readouterr().out
        assert (f"{key}: first left the recording at checkpoint "
                f"{second}: monitor") in out
        assert f"checkpoints.{second}.monitor" in out
        assert out.index("first left the recording") \
            < out.index("golden mismatches by point")

    def test_update_writes_both_files_byte_for_byte(self, update_run):
        path, _ = update_run
        assert path.read_bytes() == GOLDEN_PATH.read_bytes()
        assert (path.with_name(GOLDEN_CHECKPOINTS_PATH.name).read_bytes()
                == GOLDEN_CHECKPOINTS_PATH.read_bytes())

    def test_update_runs_each_golden_point_once(self, update_run):
        _, started = update_run
        assert len(started) == len(golden_keys()) == 24
