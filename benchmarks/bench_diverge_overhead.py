"""Divergence-probe overhead guard.

The repro.diverge PR's contract, the third layer of the shared
observer-seam budget:

* **Behaviour** (always) — a probe-attached run is bit-identical to a
  probe-detached run, and the detached run still reproduces the
  request count pinned in ``telemetry_baseline.json`` (the goldens
  check enforces the same at matrix scale).
* **Speed, detached** (recorded always, asserted under
  ``REPRO_BENCH_STRICT=1`` on the baseline's machine) — with no probe
  attached the hot loops pay one ``is None`` branch per dispatched
  event and per grant, and the bare fast loop pays nothing at all, so
  wall clock must stay within ``STRICT_TOLERANCE`` of the committed
  pre-telemetry baseline.
* **Speed, attached** (recorded always) — the cost of per-quantum
  checkpointing lands in ``BENCH_history.json`` so the
  cadence/overhead trade-off documented in docs/DIVERGENCE.md stays
  measured, not folklore.
"""

import os
import time
from pathlib import Path

from conftest import STRICT_TOLERANCE, alternating_rounds, record_history
from repro import SimConfig, System, make_scheduler
from repro.diverge import StateProbe
from repro.prof.history import load_baseline, machine_fingerprint, same_machine
from repro.workloads import make_intensity_workload

BASELINE = load_baseline(Path(__file__).parent / "telemetry_baseline.json")
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"
SAME_MACHINE = same_machine(BASELINE.get("machine"), machine_fingerprint())


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


def _probed_run(cadence=None):
    system = _system()
    probe = StateProbe().attach(system)
    system.start_run()
    horizon = BASELINE["run_cycles"]
    step = cadence or horizon
    cycle = 0
    while cycle < horizon:
        cycle = min(cycle + step, horizon)
        system.advance(cycle)
        probe.fingerprint()
    return system.finish_run(horizon), probe


def test_probe_detached_matches_baseline_behaviour(benchmark):
    """Probe-detached runs reproduce the pinned request count."""
    result = benchmark.pedantic(lambda: _system().run(), rounds=3,
                                iterations=1)
    assert result.total_requests == BASELINE["requests"]
    benchmark.extra_info["requests"] = result.total_requests


def test_probe_does_not_change_results():
    """Checkpointing at quantum cadence observes without perturbing."""
    plain = _system().run()
    cadence = SimConfig().quantum_cycles
    probed, probe = _probed_run(cadence)
    assert _result_fingerprint(probed) == _result_fingerprint(plain)
    assert probe.rings()["events"], "probe saw no events"


def test_probe_detached_overhead_vs_baseline(benchmark):
    """Probe-detached wall clock vs the committed baseline.

    Best of 5, matching how the baseline was measured.  With no probe
    the run takes the fused loop, so the detached cost is one
    eligibility check per ``advance`` call.
    """
    timings = []
    for _ in range(5):
        system = _system()
        t0 = time.perf_counter()
        system.run()
        timings.append(time.perf_counter() - t0)
    best = min(timings)
    ratio = best / BASELINE["min_s"]
    benchmark.extra_info["probe_off_min_s"] = best
    benchmark.extra_info["baseline_min_s"] = BASELINE["min_s"]
    benchmark.extra_info["slowdown_vs_baseline"] = ratio
    benchmark.extra_info["same_machine"] = SAME_MACHINE
    record_history(
        "diverge_overhead[tcm]", "diverge_overhead", timings,
        tolerance=STRICT_TOLERANCE,
        requests=BASELINE["requests"],
        slowdown_vs_baseline=ratio,
    )
    benchmark.pedantic(lambda: _system().run(), rounds=1, iterations=1)
    if STRICT and SAME_MACHINE:
        assert ratio <= STRICT_TOLERANCE, (
            f"probe-detached sim is {ratio:.3f}x the pre-telemetry "
            f"baseline (limit {STRICT_TOLERANCE}x)"
        )


def test_probe_attached_cost_is_recorded(benchmark):
    """Record per-quantum checkpointing cost (informational).

    Attached runs keep event and grant rings and hash the full
    canonical state at every checkpoint; no strict budget — the probe
    is a forensic tool, not an always-on path — but the ratio lands in
    the benchmark artifact and ``BENCH_history.json`` so a pathological
    regression (e.g. accidental per-event snapshotting) is visible.
    """
    cadence = SimConfig().quantum_cycles
    # both sides time building the system, as the probed run must
    off_timings, on_timings = alternating_rounds(
        lambda: lambda: _system().run(),
        lambda: lambda: _probed_run(cadence),
        rounds=3,
    )
    ratio = min(on_timings) / min(off_timings)
    benchmark.extra_info["probe_attached_vs_off"] = ratio
    benchmark.extra_info["cadence_cycles"] = cadence
    record_history(
        "diverge_probe_attached[tcm]", "diverge_overhead", on_timings,
        probe_attached_vs_off=ratio,
        cadence_cycles=cadence,
    )
    benchmark.pedantic(lambda: _probed_run(cadence), rounds=1,
                       iterations=1)
