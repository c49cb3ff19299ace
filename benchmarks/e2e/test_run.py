"""Self-test of the end-to-end benchmark at smoke scale.

Run from the repository root with ``pytest benchmarks/e2e``.  Every
workload runs once untraced and once traced at 60k cycles, one pass,
``per_category=1``; the whole module takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
OBSERVER_LAYERS = ("telemetry", "obs", "explain", "diverge")


def run(out: Path, *args: str, cwd: Path = ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--scale", "smoke", "--out", str(out),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Both runs of all four workloads: {trace: summary}, and ``out``."""
    out = tmp_path_factory.mktemp("e2e")
    summaries = {}
    for trace in (0, 1):
        proc = run(out, "--seed", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        name = "e2e-trace.json" if trace else "e2e.json"
        summaries[trace] = json.loads((out / name).read_text())
    return out, summaries


def declared(kind: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(smoke, trace, kind):
    _, summaries = smoke
    for workload in WORKLOADS:
        result = summaries[trace][workload]["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared(kind), workload


def test_end_to_end_metrics_are_never_zero(smoke):
    _, summaries = smoke
    for workload in WORKLOADS:
        for name, metric in summaries[0][workload]["result"][
                "metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_digests_repeat_across_passes_and_tracing(smoke):
    _, summaries = smoke
    for workload in WORKLOADS:
        plain = summaries[0][workload]["details"]
        traced = summaries[1][workload]["details"]
        assert len({p["digest"] for p in plain["passes"]}) == 1
        assert plain["digest"] == traced["digest"], workload
        if plain["expected_digest"] is not None:
            assert plain["digest"] == plain["expected_digest"]


def test_self_times_tile_the_traced_wall_time(smoke):
    out, _ = smoke
    for workload in WORKLOADS:
        report = json.loads((out / f"layers-{workload}.json").read_text())
        total = sum(layer["self_s"] for layer in report["layers"].values())
        wall = report["traced_wall_s"]
        assert abs(total - wall) <= 0.01 * wall, workload
        assert (out / f"trace-{workload}.json").is_file()


def test_observer_layers_work_only_in_observed(smoke):
    _, summaries = smoke
    for workload in WORKLOADS:
        metrics = summaries[1][workload]["result"]["metrics"]
        for layer in OBSERVER_LAYERS:
            calls = metrics[f"{layer}.calls"]["value"]
            if workload == "observed":
                assert calls > 0, layer
            else:
                assert calls == 0, (workload, layer)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path / "out", "--workload", "sim_core", "--seed", "0",
               "--seconds", "1", "--trace", "0", cwd=tmp_path,
               script=copy / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines())
