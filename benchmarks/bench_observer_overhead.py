"""Observer overhead: what each instrument costs the run it watches.

One TCM point (the 0.75 mix, 24 threads, seed 0, 120k cycles) serves
four instruments: telemetry (an in-memory tracer and the epoch
sampler), full spans, explain with one FR-FCFS shadow, and a state
probe that checkpoints at quantum cadence.  For each of them:

* **Non-perturbation** (always) — the attached run's ``RunResult``
  equals the plain run's, and the instrument saw the run.  The plain
  run reproduces the pinned request count, :data:`REQUESTS`.
* **Cost** (recorded always) — attached over plain wall clock, the
  best of several rounds that alternate the two kinds of run in one
  process (:func:`alternating_rounds`), lands in ``extra_info`` and,
  with ``REPRO_BENCH_RECORD=1``, in the instrument's ``*_attached[tcm]``
  history record.  Explain's ratio alone has a bound,
  :data:`MAX_ATTACHED`, asserted under ``REPRO_BENCH_STRICT=1`` on any
  host: both sides of the ratio run on the same host seconds apart.
  Explain's record also carries ``py_calls_per_request``, the Python
  frames an explain-attached run's ``advance`` enters per granted
  request (:func:`repro.prof.py_calls_per_request`), a count that is
  the same on any host (informational, no bound).

The plain run's own speed has one guard,
``bench_engine_speed.py::test_plain_run_vs_history``.
"""

import gc
import time
import tracemalloc

import pytest

from conftest import record_history
from repro import SimConfig, System, make_scheduler
from repro.diverge import StateProbe
from repro.explain import attach_explain
from repro.obs import SpanCollector, reconcile
from repro.prof import py_calls_per_request
from repro.prof.history import strict_mode
from repro.telemetry import EpochSampler, Telemetry, Tracer
from repro.telemetry.sinks import NullSink
from repro.validate import attach_oracle
from repro.workloads import make_intensity_workload

CYCLES = 120_000
THREADS = 24
#: requests the plain run completes; a change to what the simulator
#: does at this point moves it
REQUESTS = 4_994
#: the probe checkpoints once per quantum, as the goldens do
CADENCE = SimConfig().quantum_cycles
#: explain-attached with one shadow may cost at most 2x the plain run
MAX_ATTACHED = 2.0


def _system(telemetry=None):
    workload = make_intensity_workload(0.75, num_threads=THREADS, seed=0)
    config = SimConfig(run_cycles=CYCLES, num_threads=THREADS)
    return System(workload, make_scheduler("tcm"), config, seed=0,
                  telemetry=telemetry)


def _explained_system():
    system = _system()
    return system, attach_explain(system, shadows=("frfcfs",))


def _probed_run():
    """The point run a quantum at a time, its state fingerprinted after
    each quantum; the result and the probe."""
    system = _system()
    probe = StateProbe().attach(system)
    system.start_run()
    cycle = 0
    while cycle < CYCLES:
        cycle = min(cycle + CADENCE, CYCLES)
        system.advance(cycle)
        probe.fingerprint()
    return system.finish_run(CYCLES), probe


def alternating_rounds(off, on, rounds: int):
    """Time an off run then an on run, ``rounds`` times over.

    ``off`` and ``on`` are called untimed and return the zero-argument
    callable that is timed, so a bench chooses whether building the
    system counts.  Returns ``(off_timings, on_timings)``.  A shared
    host's speed drifts within seconds; alternating the two kinds of
    run lands that drift on both sides of an attached-vs-off ratio
    instead of between two blocks of runs.
    """
    off_timings, on_timings = [], []
    for _ in range(rounds):
        for prepare, timings in ((off, off_timings), (on, on_timings)):
            run = prepare()
            t0 = time.perf_counter()
            run()
            timings.append(time.perf_counter() - t0)
    return off_timings, on_timings


def _attached_ratio(benchmark, off, on, rounds: int):
    """Best attached round over best plain round, and the attached
    timings; ``benchmark`` times the whole alternating measurement."""
    off_timings, on_timings = benchmark.pedantic(
        alternating_rounds, args=(off, on, rounds), rounds=1, iterations=1)
    return min(on_timings) / min(off_timings), on_timings


def held_bytes(build) -> int:
    """Bytes tracemalloc sees still allocated after running the system
    ``build()`` returns, the system itself freed: what its observers
    keep."""
    system = build()
    gc.collect()
    tracemalloc.start()
    try:
        system.run()
        del system
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def plain():
    """The plain run every non-perturbation check compares against."""
    return _system().run()


def test_plain_run_reproduces_pinned_requests(plain):
    assert plain.total_requests == REQUESTS


# ----------------------------------------------------------------------
# non-perturbation
# ----------------------------------------------------------------------

def test_telemetry_does_not_change_results(plain):
    telemetry = Telemetry.in_memory(epoch_cycles=20_000, validate=True)
    assert _system(telemetry).run() == plain
    assert telemetry.tracer.events_emitted > REQUESTS
    assert len(telemetry.samples) > 0


def test_oracle_does_not_change_results(plain):
    """The invariant oracle observes the run without perturbing it, and
    a system it never touched carries none of its machinery."""
    system = _system()
    oracle = attach_oracle(system)
    checked = system.run()
    report = oracle.finish(checked)
    assert checked == plain
    assert report.ok and report.total_checks > REQUESTS

    untouched = _system()
    assert untouched._tracer is None
    assert "select" not in vars(untouched.scheduler)


def test_spans_do_not_change_results_and_books_balance(plain):
    telemetry = Telemetry(spans=SpanCollector())
    assert _system(telemetry).run() == plain
    spans = telemetry.spans
    assert spans.requests_completed > 0
    assert len(spans.spans) > 0
    checks = reconcile(spans, strict=True)
    assert all(v == "ok" for v in checks.values())
    assert spans.total_attributed > 0


def test_explain_does_not_change_results(plain):
    system, collector = _explained_system()
    assert system.run() == plain
    assert collector.decisions_total > 0, "collector saw no grants"
    shadow = collector.shadows[0]
    assert 0 <= shadow.agreed <= collector.decisions_total
    assert sum(shadow.granted) == collector.decisions_total


def test_probe_does_not_change_results(plain):
    probed, probe = _probed_run()
    assert probed == plain
    assert probe.rings()["events"], "probe saw no events"


# ----------------------------------------------------------------------
# cost
# ----------------------------------------------------------------------

def test_telemetry_attached_cost(benchmark):
    """In-memory tracing and epoch sampling over a plain run, 5 rounds.
    Also ``trace_bytes_per_event``: what an in-memory tracer holds
    after its run, over a tracer whose sink keeps nothing, per event
    emitted."""
    ratio, on_timings = _attached_ratio(
        benchmark,
        lambda: _system().run,
        lambda: _system(Telemetry.in_memory(validate=False)).run,
        rounds=5,
    )
    memory = Telemetry.in_memory(validate=False)
    null = Telemetry(tracer=Tracer([NullSink()]), sampler=EpochSampler())
    trace_bytes = ((held_bytes(lambda: _system(memory))
                    - held_bytes(lambda: _system(null)))
                   / memory.tracer.events_emitted)
    benchmark.extra_info["telemetry_attached_vs_off"] = ratio
    benchmark.extra_info["trace_bytes_per_event"] = trace_bytes
    record_history(
        "telemetry_attached[tcm]", "telemetry_overhead", on_timings,
        telemetry_attached_vs_off=ratio,
        trace_bytes_per_event=trace_bytes,
    )


def test_spans_attached_cost(benchmark):
    """Full span collection over a plain run, 3 rounds.  Also
    ``span_bytes_per_request``: what a full collector holds after its
    run, over a plain run, per completed request."""
    ratio, on_timings = _attached_ratio(
        benchmark,
        lambda: _system().run,
        lambda: _system(Telemetry(spans=SpanCollector())).run,
        rounds=3,
    )
    full = Telemetry(spans=SpanCollector())
    span_bytes = ((held_bytes(lambda: _system(full)) - held_bytes(_system))
                  / full.spans.requests_completed)
    benchmark.extra_info["spans_full_vs_off"] = ratio
    benchmark.extra_info["span_bytes_per_request"] = span_bytes
    record_history(
        "obs_attached[tcm]", "obs_overhead", on_timings,
        spans_full_vs_off=ratio,
        span_bytes_per_request=span_bytes,
    )


def test_explain_attached_cost_is_bounded(benchmark):
    """One shadow and per-grant forensics over a plain run, 5 rounds,
    within :data:`MAX_ATTACHED`.

    Attached runs score every queued candidate at every grant and
    drive a full shadow scheduler, so the cost is real, but it must
    stay proportionate: the collector is a forensic tool that still
    has to be usable on full-length runs.  One more, untimed,
    attached run counts its Python frames per request.
    """
    # both sides build (and attach) untimed: the ratio is the run's
    ratio, on_timings = _attached_ratio(
        benchmark,
        lambda: _system().run,
        lambda: _explained_system()[0].run,
        rounds=5,
    )
    counted, _ = _explained_system()
    counted.start_run()
    calls = round(py_calls_per_request(counted, CYCLES), 3)
    benchmark.extra_info["explain_attached_vs_off"] = ratio
    benchmark.extra_info["py_calls_per_request"] = calls
    record_history(
        "explain_attached[tcm]", "explain_overhead", on_timings,
        explain_attached_vs_off=ratio,
        py_calls_per_request=calls,
    )
    if strict_mode():
        assert ratio <= MAX_ATTACHED, (
            f"explain-attached sim is {ratio:.3f}x the plain run "
            f"(limit {MAX_ATTACHED}x)"
        )


def test_probe_attached_cost(benchmark):
    """Checkpointing every quantum over a plain run, 3 rounds: the
    probe keeps event and grant rings and hashes the full canonical
    state at every checkpoint."""
    # both sides time building the system, as the probed run must
    ratio, on_timings = _attached_ratio(
        benchmark,
        lambda: lambda: _system().run(),
        lambda: _probed_run,
        rounds=3,
    )
    benchmark.extra_info["probe_attached_vs_off"] = ratio
    benchmark.extra_info["cadence_cycles"] = CADENCE
    record_history(
        "diverge_probe_attached[tcm]", "diverge_overhead", on_timings,
        probe_attached_vs_off=ratio,
        cadence_cycles=CADENCE,
    )
