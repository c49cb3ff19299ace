"""``scripts/record_bench_history.py`` records every history family.

A bench that calls ``record_history`` but is missing from the script's
``BENCHES`` list never reaches the committed ``BENCH_history.json``, so
``prof compare`` has no baseline for it.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _script():
    spec = importlib.util.spec_from_file_location(
        "record_bench_history_under_test",
        REPO_ROOT / "scripts" / "record_bench_history.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benches_cover_every_recording_bench():
    recording = {
        f"benchmarks/{path.name}"
        for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        if "record_history(" in path.read_text(encoding="utf-8")
    }
    assert recording, "no bench calls record_history"
    assert set(_script().BENCHES) == recording
