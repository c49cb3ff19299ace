"""Observability (span) overhead guard.

The repro.obs PR's contract, mirroring the telemetry guard next door:

* **Behaviour** (always) — span collection, lite or full, never
  changes the simulated outcome: a spans-on run is bit-identical to a
  spans-off run, and the spans-off run still reproduces the request
  count in ``telemetry_baseline.json``.
* **Speed** (recorded always, asserted under ``REPRO_BENCH_STRICT=1``
  on the baseline's machine fingerprint) — with spans off the hot path
  pays one ``is None`` branch per emit site, so wall-clock must stay
  within ``STRICT_TOLERANCE`` of the pre-telemetry baseline.  The
  assert is opt-in for the same reason as the telemetry guard: the baseline timing is
  machine-specific (the baseline now lives in ``repro.prof.history``
  v1 format and carries the measuring machine's fingerprint).
* **Attribution sanity** (always) — the full collector's books balance
  on the benchmark workload (reconciliation passes strictly).

The TCM baseline workload is deliberately reused: one committed
reference point guards both observability layers.
"""

import os
import time
from pathlib import Path

from conftest import (
    STRICT_TOLERANCE,
    alternating_rounds,
    held_bytes,
    record_history,
)
from repro import SimConfig, System, make_scheduler
from repro.obs import SpanCollector, reconcile
from repro.prof.history import load_baseline, machine_fingerprint, same_machine
from repro.telemetry import Telemetry
from repro.workloads import make_intensity_workload

BASELINE = load_baseline(Path(__file__).parent / "telemetry_baseline.json")
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"
SAME_MACHINE = same_machine(BASELINE.get("machine"), machine_fingerprint())


def _system(telemetry=None):
    cfg = SimConfig(run_cycles=BASELINE["run_cycles"],
                    num_threads=BASELINE["num_threads"])
    workload = make_intensity_workload(
        BASELINE["intensity"], num_threads=BASELINE["num_threads"],
        seed=BASELINE["seed"],
    )
    return System(workload, make_scheduler(BASELINE["scheduler"]), cfg,
                  seed=BASELINE["seed"], telemetry=telemetry)


def _result_fingerprint(result):
    return (
        result.total_requests,
        tuple(result.ipcs),
        tuple(t.misses for t in result.threads),
        result.row_hits,
        result.row_conflicts,
    )


def test_spans_off_matches_baseline_behaviour(benchmark):
    """Spans-off runs reproduce the pre-PR request count exactly."""
    result = benchmark.pedantic(lambda: _system().run(), rounds=3,
                                iterations=1)
    assert result.total_requests == BASELINE["requests"]
    benchmark.extra_info["requests"] = result.total_requests


def test_span_collection_does_not_change_results():
    """Full and lite collectors observe without perturbing the run."""
    plain = _system().run()

    full = Telemetry(spans=SpanCollector())
    full_run = _system(full).run()
    assert _result_fingerprint(full_run) == _result_fingerprint(plain)
    assert full.spans.requests_completed > 0
    assert len(full.spans.spans) > 0

    lite = Telemetry(spans=SpanCollector(record_intervals=False))
    lite_run = _system(lite).run()
    assert _result_fingerprint(lite_run) == _result_fingerprint(plain)
    # both tiers apply the identical grant rule
    assert lite.spans.t_interference == full.spans.t_interference
    assert lite.spans.matrix == full.spans.matrix


def test_full_collector_books_balance():
    """Reconciliation passes strictly on the benchmark workload."""
    telemetry = Telemetry(spans=SpanCollector())
    _system(telemetry).run()
    checks = reconcile(telemetry.spans, strict=True)
    assert all(v == "ok" for v in checks.values())
    assert telemetry.spans.total_attributed > 0


def test_spans_off_overhead_vs_baseline(benchmark):
    """Spans-off wall clock vs the committed pre-telemetry baseline.

    Best of 5, matching how the baseline was measured; the budget
    covers the per-emit-site ``is None`` branches the span collector
    adds on top of telemetry's.
    """
    timings = []
    for _ in range(5):
        system = _system()
        t0 = time.perf_counter()
        system.run()
        timings.append(time.perf_counter() - t0)
    best = min(timings)
    ratio = best / BASELINE["min_s"]
    benchmark.extra_info["spans_off_min_s"] = best
    benchmark.extra_info["baseline_min_s"] = BASELINE["min_s"]
    benchmark.extra_info["slowdown_vs_baseline"] = ratio
    benchmark.extra_info["same_machine"] = SAME_MACHINE
    record_history(
        "obs_overhead[tcm]", "obs_overhead", timings,
        tolerance=STRICT_TOLERANCE,
        requests=BASELINE["requests"],
        slowdown_vs_baseline=ratio,
    )
    benchmark.pedantic(lambda: _system().run(), rounds=1, iterations=1)
    if STRICT and SAME_MACHINE:
        assert ratio <= STRICT_TOLERANCE, (
            f"spans-off sim is {ratio:.3f}x the pre-telemetry baseline "
            f"(limit {STRICT_TOLERANCE}x)"
        )


def test_full_span_overhead_is_bounded(benchmark):
    """Record the cost of full span collection (informational).

    Full spans are an opt-in analysis mode; no strict budget, but the
    ratio lands in the benchmark artifact and, as the
    ``obs_attached[tcm]`` record, in the benchmark history, so a
    pathological regression (e.g. accidental O(queue²) work per grant)
    is visible.  So does ``span_bytes_per_request``: what a full
    collector holds after its run, over a spans-off run, per completed
    request.
    """
    off_timings, on_timings = alternating_rounds(
        lambda: _system().run,
        lambda: _system(Telemetry(spans=SpanCollector())).run,
        rounds=3,
    )
    ratio = min(on_timings) / min(off_timings)
    benchmark.extra_info["spans_full_vs_off"] = ratio
    full = Telemetry(spans=SpanCollector())
    span_bytes = ((held_bytes(lambda: _system(full)) - held_bytes(_system))
                  / full.spans.requests_completed)
    benchmark.extra_info["span_bytes_per_request"] = span_bytes
    record_history(
        "obs_attached[tcm]", "obs_overhead", on_timings,
        spans_full_vs_off=ratio,
        span_bytes_per_request=span_bytes,
    )
    benchmark.pedantic(
        lambda: _system(Telemetry(spans=SpanCollector())).run(),
        rounds=1, iterations=1,
    )
