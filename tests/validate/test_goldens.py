"""Tests for the golden-run regression harness.

The expensive acceptance check — recomputing the full pinned matrix
and requiring zero drift against the committed file — lives here too;
it doubles as the proof that the committed goldens are in sync with
the simulator at every commit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.validate import (
    GOLDEN_PATH,
    GOLDEN_SCHEDULERS,
    check_goldens,
    compare_fingerprints,
    compute_golden_matrix,
    golden_key,
    golden_mixes,
    load_goldens,
    save_goldens,
)
from repro.validate.goldens import GOLDEN_SEEDS, GOLDEN_VERSION

pytestmark = pytest.mark.validate

REPO = Path(__file__).resolve().parents[2]


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


@pytest.mark.slow
class TestGoldenRegression:
    def test_no_drift_against_committed_goldens(self):
        """THE regression gate: the simulator reproduces every pinned
        fingerprint exactly."""
        drifts = check_goldens()
        assert drifts == [], [str(d) for d in drifts[:10]]

    def test_drift_detected_and_script_fails(self, tmp_path):
        """A perturbed golden file must make ``validate goldens`` exit
        non-zero and name the drifted field."""
        document = json.loads(GOLDEN_PATH.read_text())
        key = next(iter(sorted(document["matrix"])))
        document["matrix"][key]["total_requests"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(document))

        fresh = compute_golden_matrix()
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
