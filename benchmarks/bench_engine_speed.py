"""Simulator performance: events and requests per second.

Not a paper experiment — tracks the event-driven engine's own speed
(the practical limit on how closely the paper's 100M-cycle scale can
be approached).  Three layers:

* **Per-scheduler speed** — every policy in the registry
  (``engine_speed[tcm]`` ...; see docs/PERFORMANCE.md), plus FR-FCFS
  and TCM with writes and prefetching on (``engine_speed[tcm-rw]`` ...,
  the e2e benchmark's ``sim_rw`` configuration).  Each bench appends
  a ``repro.prof.history`` record when ``REPRO_BENCH_RECORD=1``.  It
  records no component shares: a 60k-cycle run gets some 15 profiler
  samples, too few for a share (``obs`` prints the shares of a run
  long enough to carry them).
  ``engine_speed[tcm]`` also carries ``system_bytes``, the heap one
  built, unrun ``SimConfig()`` TCM System holds (informational, no
  bound).  ``engine_speed[tcm]`` and ``engine_speed[tcm-rw]`` carry
  ``py_calls_per_request``, the Python frames ``advance`` enters per
  granted request (:func:`repro.prof.py_calls_per_request`), a count
  that is the same on any host; ``tests/engine/test_call_budget.py``
  holds the ``tcm`` point to a ceiling.
* **Profiler identity** — a profiled run returns a ``RunResult`` equal
  to the plain run's (sampling reads frames only and must never
  perturb the simulation).  The sampler wraps nothing, so both runs
  take the fused loop: this check does not pin the fused loop to the
  dispatch loop, which ``tests/engine/test_backend_parity.py`` does.
* **Plain-run guard** — the median of 5 plain runs against the
  committed ``BENCH_history.json`` record for ``engine_speed[tcm]``
  via :func:`repro.prof.history.compare` at ``STRICT_TOLERANCE``.
  Asserted only under ``REPRO_BENCH_STRICT=1`` *and* a matching machine
  fingerprint (fingerprint mismatch is a warn-verdict by design); the
  ratio lands in ``extra_info`` either way.  It is the one guard on a
  plain run's speed: the observer-overhead bench times its plain runs
  only against attached ones.
"""

import gc
import os
import statistics
import time
import tracemalloc

import pytest

from conftest import REPO_ROOT, record_history
from repro import SimConfig, System, make_scheduler
from repro.prof import history as prof_history
from repro.prof import profile_run, py_calls_per_request
from repro.schedulers.registry import SCHEDULERS
from repro.workloads import make_intensity_workload

CYCLES = 60_000
THREADS = 24
ROUNDS = 5
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"
#: the plain-run guard's budget (fresh median / committed median).
#: Same-build runs on one machine spread 5-15%, so a tighter budget
#: fires on noise rather than on a regression.
STRICT_TOLERANCE = 1.15
#: writes and prefetching on, as in the e2e benchmark's sim_rw workload
RW = {"model_writes": True, "prefetch_degree": 2}
#: (bench id, scheduler, config features): every registered policy,
#: then sim_rw's two policies with writes and prefetching
POINTS = [(name, name, {}) for name in sorted(SCHEDULERS)] + [
    (f"{name}-rw", name, RW) for name in ("frfcfs", "tcm")
]
#: bench points whose records carry ``py_calls_per_request``
CALL_COUNTED = ("tcm", "tcm-rw")


def _workload():
    return make_intensity_workload(0.75, num_threads=THREADS, seed=0)


def _config(features):
    return SimConfig(run_cycles=CYCLES, **features)


def _system(scheduler_name, features=None):
    return System(_workload(), make_scheduler(scheduler_name),
                  _config(features or {}), seed=0)


def _system_bytes() -> int:
    """Bytes tracemalloc sees one built, unrun ``SimConfig()`` TCM System
    hold, the mix built before tracing starts."""
    workload = _workload()
    gc.collect()
    tracemalloc.start()
    try:
        system = System(workload, make_scheduler("tcm"), SimConfig(), seed=0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del system
    finally:
        tracemalloc.stop()
    return held


def _calls_per_request(scheduler_name, features) -> float:
    """Python frames one full run's ``advance`` enters per request."""
    system = _system(scheduler_name, features)
    system.start_run()
    return round(py_calls_per_request(system, CYCLES), 3)


def _timed_run(scheduler_name, features=None):
    system = _system(scheduler_name, features)
    t0 = time.perf_counter()
    result = system.run()
    return time.perf_counter() - t0, result, system


@pytest.mark.parametrize("point, name, features", POINTS,
                         ids=[point for point, _, _ in POINTS])
def test_engine_speed(benchmark, point, name, features):
    """Engine speed for one registered policy."""
    rounds, result, events = [], None, 0
    for _ in range(ROUNDS):
        dt, result, system = _timed_run(name, features)
        rounds.append(dt)
        events = system._seq
    assert result.total_requests > 500
    median = statistics.median(rounds)

    # The identity check: one profiled run, not a timed round.
    # Profiled and plain runs both take the fused loop, so this
    # equality does not pin the loops to each other
    # (tests/engine/test_backend_parity.py does).
    prof_result, _ = profile_run(
        _workload(), name, _config(features), seed=0,
    )
    assert prof_result == result, "profiler changed the simulated outcome"
    footprint = {"system_bytes": _system_bytes()} if point == "tcm" else {}
    if point in CALL_COUNTED:
        footprint["py_calls_per_request"] = _calls_per_request(name, features)

    benchmark.extra_info.update(footprint)
    benchmark.extra_info["requests"] = result.total_requests
    benchmark.extra_info["cycles"] = CYCLES
    benchmark.extra_info["events_per_sec"] = round(events / median)
    benchmark.extra_info["requests_per_sec"] = round(
        result.total_requests / median
    )
    record_history(
        f"engine_speed[{point}]", "engine_speed", rounds,
        requests=result.total_requests,
        cycles=CYCLES,
        events=events,
        events_per_sec=round(events / median),
        requests_per_sec=round(result.total_requests / median),
        **footprint,
    )
    benchmark.pedantic(lambda: _system(name, features).run(),
                       rounds=1, iterations=1)


def test_plain_run_vs_history(benchmark):
    """Plain-run wall clock vs the committed history record.

    The profiler wraps nothing, so every run without an observer is
    this run: the median of 5 against the committed
    ``engine_speed[tcm]`` median must stay within ``STRICT_TOLERANCE``
    on the machine that recorded it.
    """
    committed = prof_history.load(REPO_ROOT / prof_history.DEFAULT_HISTORY)
    baseline = prof_history.latest(committed, "engine_speed[tcm]")
    if baseline is None:
        pytest.skip("no committed engine_speed[tcm] record yet")

    rounds = [_timed_run("tcm")[0] for _ in range(5)]
    fresh = prof_history.make_record("engine_speed[tcm]", "engine_speed",
                                     rounds)
    verdict = prof_history.compare(baseline, fresh,
                                   tolerance=STRICT_TOLERANCE)
    benchmark.extra_info["verdict"] = verdict.verdict
    benchmark.extra_info["ratio"] = verdict.ratio
    benchmark.extra_info["message"] = verdict.message
    benchmark.pedantic(lambda: _system("tcm").run(), rounds=1, iterations=1)
    if STRICT and verdict.comparable:
        assert not verdict.failed, verdict.message
