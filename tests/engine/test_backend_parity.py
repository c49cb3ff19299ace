"""Loop parity matrix: the fused loop must equal the dispatch loop.

``System.advance`` drains events through one of two loops over the
same state (docs/PERFORMANCE.md, "One engine, two loops"): the fused
loop unless a feature it does not implement or a per-instance wrapper
rules it out, the method-dispatch loop otherwise.  Their contract is
*bit-identity*: equal :class:`~repro.sim.results.RunResult` objects —
every instruction count, latency sum, float IPC and per-quantum
timeline entry, not statistical agreement.  Each check runs one
configuration both ways, the reference side inside
``tests.conftest.dispatch_loop`` (``fusable`` patched off):

* a **smoke tier** (always on) differencing six scheduler/intensity
  points plus every component's final state and sampled runs, and
  holding the span tiling and explain decision records of an
  instrumented run (dispatch loop) against the plain fused run's books;
* a **write/prefetch smoke tier** (always on) differencing the e2e
  benchmark's ``sim_rw`` shape — FR-FCFS and TCM at 100% intensity
  with writes and prefetching on — plus one point whose write buffer
  is small enough to drop writes;
* a **full tier** (``-m slow``) differencing all eight registered
  schedulers across the three golden intensity classes (24 points),
  once plain and once with writes and prefetching, and checking the
  committed golden matrix on the dispatch loop.

Every pair also compares the state a ``RunResult`` does not carry:
each channel's write counters and write buffer, and each thread's
prefetcher (stats, throttle, in-flight blocks, buffered credits and
merged waiters).

``test_instrument_parity.py`` holds every instrument's output to the
same standard.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.diverge import snapshot_state
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.fused import fusable
from repro.sim.system import System
from repro.telemetry import Telemetry
from repro.validate.fingerprint import fingerprint_run
from repro.validate.goldens import (
    GOLDEN_MIX_INTENSITIES,
    GOLDEN_MIX_SEED,
    GOLDEN_SCHEDULERS,
    GOLDEN_SEEDS,
    GOLDEN_THREADS,
)
from repro.workloads.mixes import make_intensity_workload
from tests.conftest import dispatch_loop

RUN_SEED = GOLDEN_SEEDS[0]

#: Smoke tier: one low- and one high-intensity point for the paper's
#: headline policies, one mid point for the remaining families.
SMOKE_POINTS = [
    ("fcfs", 0.25),
    ("frfcfs", 1.0),
    ("atlas", 0.5),
    ("stfm", 0.5),
    ("parbs", 1.0),
    ("tcm", 0.75),
]

#: Full tier: the golden matrix axes — every registered scheduler
#: crossed with every intensity class.
FULL_POINTS = [
    (scheduler, intensity)
    for scheduler in GOLDEN_SCHEDULERS
    for intensity in GOLDEN_MIX_INTENSITIES
]

#: writes and prefetching on, as in the e2e benchmark's sim_rw workload
RW = {"model_writes": True, "prefetch_degree": 2}

#: Write/prefetch smoke tier: sim_rw's two policies at 100% intensity,
#: and a write buffer small enough that writes are dropped.
RW_SMOKE_POINTS = [
    ("frfcfs", 1.0, RW),
    ("tcm", 1.0, RW),
    ("tcm", 1.0, {**RW, "write_buffer_size": 2}),
]
RW_SMOKE_IDS = ["frfcfs-1.0", "tcm-1.0", "tcm-1.0-drops"]


def _build(scheduler, intensity, run_cycles, telemetry=None, **features):
    """A golden-axes system, with ``features`` set on its config; it
    takes the fused loop unless run inside ``dispatch_loop()``."""
    config = SimConfig(run_cycles=run_cycles, num_threads=GOLDEN_THREADS,
                       **features)
    workload = make_intensity_workload(
        intensity, num_threads=GOLDEN_THREADS, seed=GOLDEN_MIX_SEED
    )
    system = System(
        workload,
        make_scheduler(scheduler),
        config,
        seed=RUN_SEED,
        telemetry=telemetry,
    )
    assert fusable(system)
    return system


def _on_dispatch_loop(system):
    """``system.run()`` with every advance on the dispatch loop."""
    with dispatch_loop():
        return system.run()


def _write_and_prefetch_state(system):
    """What a run leaves in the write buffers and prefetchers."""
    channels = [
        (channel.serviced_writes, channel.dropped_writes,
         [(w.thread_id, w.bank_id, w.row, w.arrival)
          for w in channel.write_buffer])
        for channel in system.channels
    ]
    prefetchers = [
        (p.stats, p.throttled, p._inflight, p._credits, p._waiters)
        for p in system.prefetchers or ()
    ]
    return channels, prefetchers


def _pair(scheduler, intensity, run_cycles=12_000, **features):
    """One point on both loops; also checks the state ``RunResult``
    does not carry."""
    dispatch_sys = _build(scheduler, intensity, run_cycles, **features)
    fused_sys = _build(scheduler, intensity, run_cycles, **features)
    dispatch = _on_dispatch_loop(dispatch_sys)
    fused = fused_sys.run()
    assert _write_and_prefetch_state(dispatch_sys) == \
        _write_and_prefetch_state(fused_sys)
    return dispatch_sys, dispatch, fused_sys, fused


def _assert_same_work(dispatch_sys, fused_sys):
    """The loops agree on how much work they did."""
    assert dispatch_sys._seq == fused_sys._seq
    assert dispatch_sys.now == fused_sys.now
    assert dispatch_sys.sched_decisions == fused_sys.sched_decisions
    assert dispatch_sys._latency_sum == fused_sys._latency_sum
    assert dispatch_sys._latency_count == fused_sys._latency_count


@pytest.mark.parametrize("scheduler,intensity", SMOKE_POINTS)
def test_smoke_parity(scheduler, intensity):
    """The fused and dispatch loops agree bit-for-bit (smoke tier)."""
    dispatch_sys, dispatch, fused_sys, fused = _pair(scheduler, intensity)
    assert dispatch == fused
    assert fingerprint_run(dispatch) == fingerprint_run(fused)
    _assert_same_work(dispatch_sys, fused_sys)


@pytest.mark.parametrize("scheduler,intensity,features", RW_SMOKE_POINTS,
                         ids=RW_SMOKE_IDS)
def test_write_prefetch_smoke_parity(scheduler, intensity, features):
    """With writes and prefetching on, the loops agree bit-for-bit,
    write buffers and prefetchers included."""
    dispatch_sys, dispatch, fused_sys, fused = _pair(
        scheduler, intensity, **features
    )
    assert dispatch == fused
    assert fingerprint_run(dispatch) == fingerprint_run(fused)
    _assert_same_work(dispatch_sys, fused_sys)
    # the point drains writes and serves demand misses from prefetches
    channels, prefetchers = _write_and_prefetch_state(fused_sys)
    assert sum(serviced for serviced, _, _ in channels) > 0
    assert sum(stats.useful for stats, *_ in prefetchers) > 0
    if "write_buffer_size" in features:
        assert sum(dropped for _, dropped, _ in channels) > 0


def test_registry_covered_by_matrix():
    """The full tier covers every registered scheduler (no new policy
    can ship without entering the differential matrix)."""
    assert set(GOLDEN_SCHEDULERS) == set(SCHEDULERS)


@pytest.mark.slow
@pytest.mark.validate
@pytest.mark.parametrize("scheduler,intensity", FULL_POINTS)
def test_full_matrix_parity(scheduler, intensity):
    """All 24 scheduler x intensity points are bit-identical."""
    _, dispatch, _, fused = _pair(scheduler, intensity, run_cycles=60_000)
    assert dispatch == fused
    assert fingerprint_run(dispatch) == fingerprint_run(fused)


@pytest.mark.slow
@pytest.mark.validate
@pytest.mark.parametrize("scheduler,intensity", FULL_POINTS)
def test_write_prefetch_full_matrix_parity(scheduler, intensity):
    """All 24 points are bit-identical with writes and prefetching on."""
    _, dispatch, _, fused = _pair(scheduler, intensity, run_cycles=60_000,
                                  **RW)
    assert dispatch == fused
    assert fingerprint_run(dispatch) == fingerprint_run(fused)


@pytest.mark.slow
@pytest.mark.validate
def test_golden_matrix_on_dispatch_loop(monkeypatch):
    """The committed goldens hold verbatim on the dispatch loop.

    Every simulation of the golden matrix — alone runs included, with
    the alone-run cache cleared — is routed through the dispatch loop
    and diffed against the committed fingerprints and per-quantum
    checkpoints, which the default check reproduces on the fused loop.
    """
    import repro.sim.system
    from repro.experiments import runner
    from repro.validate.goldens import check_goldens

    monkeypatch.setattr(repro.sim.system, "fusable", lambda system: False)
    runner.clear_alone_cache()
    try:
        drifts = check_goldens()
    finally:
        runner.clear_alone_cache()
    assert not drifts, "\n".join(str(d) for d in drifts)


def test_telemetry_counter_parity():
    """Every counter and every piece of state a run leaves (all of
    ``snapshot_state``'s components) agrees across the loops."""
    states = {}
    for dispatch in (True, False):
        system = _build("tcm", 0.75, 12_000)
        if dispatch:
            _on_dispatch_loop(system)
        else:
            system.run()
        states[dispatch] = snapshot_state(system)
    assert states[True] == states[False]


def test_observed_run_parity():
    """A sampled and traced run on the dispatch loop equals the
    unobserved run on the fused loop: result and the final state of
    every component but ``events`` and ``progress``, where the
    sampler's ticks are extra events and sequence numbers."""
    telemetry = Telemetry.in_memory(epoch_cycles=4_000)
    observed = _build("atlas", 0.5, 12_000, telemetry=telemetry)
    observed_result = _on_dispatch_loop(observed)
    assert telemetry.samples
    plain = _build("atlas", 0.5, 12_000)
    assert plain.run() == observed_result
    components = ("dram", "cpu", "rng", "monitor", "scheduler")
    assert snapshot_state(plain, components) == \
        snapshot_state(observed, components)


def _bank_books(system):
    """Per-bank ``(row hits, row conflicts, closed-row accesses)``."""
    return {
        (channel.channel_id, bank.bank_id):
            (bank.row_hits, bank.row_conflicts, bank.row_closed)
        for channel in system.channels
        for bank in channel.banks
    }


def test_span_tiling_parity():
    """Span lifecycles account exactly for the fused loop's books.

    A span-collecting run on the dispatch loop is held against the
    same point run plain on the fused loop: equal results, per-thread
    latency totals equal to the fused loop's latency books, and
    per-bank grants of each access kind equal to the fused loop's bank
    counters.
    """
    telemetry = Telemetry.observing()
    spanned = _build("stfm", 0.75, 12_000, telemetry=telemetry)
    fused = _build("stfm", 0.75, 12_000)
    assert _on_dispatch_loop(spanned) == fused.run()

    spans = telemetry.spans.all_spans()
    assert len(spans) > 100
    latency = [0] * len(fused.threads)
    completed = [0] * len(fused.threads)
    granted = {key: [0, 0, 0] for key in _bank_books(fused)}
    slot = {"hit": 0, "conflict": 1, "closed": 2}
    for span in spans:
        if span.completion is not None:
            latency[span.thread_id] += span.latency
            completed[span.thread_id] += 1
        if span.start_service is not None:
            granted[(span.channel_id, span.bank_id)][slot[span.kind]] += 1
    assert latency == fused._latency_sum == telemetry.spans.t_shared
    assert completed == fused._latency_count
    assert {key: tuple(books) for key, books in granted.items()} == \
        _bank_books(fused)


def test_decision_record_parity():
    """Explain decision records tally with the fused loop's grants.

    An explained run on the dispatch loop records every grant; the
    same point run plain on the fused loop records none but keeps the
    counts.  At every smoke point: one record per grant, and per bank
    the records' grants and row-hit winners equal the fused loop's bank
    counters.
    """
    from repro.explain import attach_explain

    for scheduler, intensity in SMOKE_POINTS:
        explained = _build(scheduler, intensity, 8_000)
        collector = attach_explain(explained, keep_records=None)
        fused = _build(scheduler, intensity, 8_000)
        assert _on_dispatch_loop(explained) == fused.run(), scheduler

        records = list(collector.records)
        assert records, f"{scheduler}: no decisions recorded"
        assert len(records) == collector.decisions_total == \
            fused.sched_decisions == sum(collector.actual_granted)
        books = _bank_books(fused)
        grants = dict.fromkeys(books, 0)
        hits = dict.fromkeys(books, 0)
        for record in records:
            key = (record.channel_id, record.bank_id)
            winner = next(c for c in record.candidates
                          if c.request_id == record.winner_request_id)
            grants[key] += 1
            hits[key] += winner.row_hit
        assert grants == {key: sum(books[key]) for key in books}, \
            f"{scheduler}@{intensity}: grants diverge"
        assert hits == {key: books[key][0] for key in books}, \
            f"{scheduler}@{intensity}: row hits diverge"
