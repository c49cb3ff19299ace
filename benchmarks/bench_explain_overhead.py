"""Explain-collector overhead guard.

The repro.explain PR's contract, the next layer of the shared
observer-seam budget:

* **Behaviour** (always) — an explain-attached run (shadows and all)
  is bit-identical to a detached run, and the detached run still
  reproduces the request count pinned in ``telemetry_baseline.json``
  (the goldens check enforces the same at matrix scale).
* **Speed, detached** (recorded always, asserted under
  ``REPRO_BENCH_STRICT=1`` on the baseline's machine) — with no
  collector attached the hot loops pay one ``is None`` branch per
  grant / arrival / completion, and the bare fast loop pays nothing at
  all, so wall clock must stay within ``STRICT_TOLERANCE`` of the
  committed pre-telemetry baseline.
* **Speed, attached** (recorded always) — one full shadow policy plus
  per-grant candidate scoring must stay within 2x the detached run;
  the measured ratio lands in ``BENCH_history.json`` as the
  ``explain_overhead`` family so docs/EXPLAIN.md's cost table stays
  measured, not folklore.
"""

import os
import time
from pathlib import Path

from conftest import STRICT_TOLERANCE, alternating_rounds, record_history
from repro import SimConfig, System, make_scheduler
from repro.explain import attach_explain
from repro.prof.history import load_baseline, machine_fingerprint, same_machine
from repro.workloads import make_intensity_workload

BASELINE = load_baseline(Path(__file__).parent / "telemetry_baseline.json")
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"
SAME_MACHINE = same_machine(BASELINE.get("machine"), machine_fingerprint())
#: explain-attached with one shadow may cost at most 2x detached
MAX_ATTACHED = 2.0


def _system():
    cfg = SimConfig(run_cycles=BASELINE["run_cycles"],
                    num_threads=BASELINE["num_threads"])
    workload = make_intensity_workload(
        BASELINE["intensity"], num_threads=BASELINE["num_threads"],
        seed=BASELINE["seed"],
    )
    return System(workload, make_scheduler(BASELINE["scheduler"]), cfg,
                  seed=BASELINE["seed"])


def _result_fingerprint(result):
    return (
        result.total_requests,
        tuple(result.ipcs),
        tuple(t.misses for t in result.threads),
        result.row_hits,
        result.row_conflicts,
    )


def _explained_system(shadows=("frfcfs",)):
    system = _system()
    return system, attach_explain(system, shadows=shadows)


def _explained_run(shadows=("frfcfs",)):
    system, collector = _explained_system(shadows)
    return system.run(), collector


def test_explain_detached_matches_baseline_behaviour(benchmark):
    """Explain-detached runs reproduce the pinned request count."""
    result = benchmark.pedantic(lambda: _system().run(), rounds=3,
                                iterations=1)
    assert result.total_requests == BASELINE["requests"]
    benchmark.extra_info["requests"] = result.total_requests


def test_explain_does_not_change_results():
    """Shadow counterfactuals observe without perturbing the run."""
    plain = _system().run()
    explained, collector = _explained_run()
    assert _result_fingerprint(explained) == _result_fingerprint(plain)
    assert collector.decisions_total > 0, "collector saw no grants"
    shadow = collector.shadows[0]
    assert 0 <= shadow.agreed <= collector.decisions_total
    assert sum(shadow.granted) == collector.decisions_total


def test_explain_detached_overhead_vs_baseline(benchmark):
    """Explain-detached wall clock vs the committed baseline.

    Best of 5, matching how the baseline was measured.  With no
    collector the run takes the fused loop, so the detached cost is
    one eligibility check per ``advance`` call.
    """
    timings = []
    for _ in range(5):
        system = _system()
        t0 = time.perf_counter()
        system.run()
        timings.append(time.perf_counter() - t0)
    best = min(timings)
    ratio = best / BASELINE["min_s"]
    benchmark.extra_info["explain_off_min_s"] = best
    benchmark.extra_info["baseline_min_s"] = BASELINE["min_s"]
    benchmark.extra_info["slowdown_vs_baseline"] = ratio
    benchmark.extra_info["same_machine"] = SAME_MACHINE
    record_history(
        "explain_overhead[tcm]", "explain_overhead", timings,
        tolerance=STRICT_TOLERANCE,
        requests=BASELINE["requests"],
        slowdown_vs_baseline=ratio,
    )
    benchmark.pedantic(lambda: _system().run(), rounds=1, iterations=1)
    if STRICT and SAME_MACHINE:
        assert ratio <= STRICT_TOLERANCE, (
            f"explain-detached sim is {ratio:.3f}x the pre-telemetry "
            f"baseline (limit {STRICT_TOLERANCE}x)"
        )


def test_explain_attached_cost_is_bounded(benchmark):
    """One shadow + per-grant forensics must stay within 2x detached.

    Attached runs score every queued candidate at every grant and
    drive a full shadow scheduler, so the cost is real — but it must
    stay proportionate (the collector is a forensic tool that still
    has to be usable on full-length runs).
    """
    # both sides build (and attach) untimed: the ratio is the run's
    off_timings, on_timings = alternating_rounds(
        lambda: _system().run, lambda: _explained_system()[0].run, rounds=5)
    ratio = min(on_timings) / min(off_timings)
    benchmark.extra_info["explain_attached_vs_off"] = ratio
    record_history(
        "explain_attached[tcm]", "explain_overhead", on_timings,
        explain_attached_vs_off=ratio,
    )
    benchmark.pedantic(lambda: _explained_run(), rounds=1, iterations=1)
    if STRICT and SAME_MACHINE:
        assert ratio <= MAX_ATTACHED, (
            f"explain-attached sim is {ratio:.3f}x the detached run "
            f"(limit {MAX_ATTACHED}x)"
        )
