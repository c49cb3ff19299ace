"""The observer protocol: recorded outputs, hook order, attach rules.

**Recorded outputs.**  One small, fully observed run per registry
scheduler — tracer and sampler, request spans, explain with shadows, a
state probe stepped through checkpoints, and a trace recorder — reduced
to one digest per instrument output.  ``tests/goldens/
observer_digests.json`` holds the digests, recorded before the
instruments moved onto :mod:`repro.sim.observer`, when the recorded
runs (which model writes and prefetching) took ``System``'s dispatch
loop.  The test reproduces them on the fused loop, which such runs take
now, so any change to when or with what an observer hook fires shows up
as drift in the instrument whose output it changed.
``tests/engine/test_instrument_parity.py`` holds the dispatch loop to
the same outputs.  Request ids are a process-global
counter, so every digest is taken over id-free structures.  Re-record
(only when an output change is intended) with::

    PYTHONPATH=src python -m tests.sim.test_observers

**Hook order.**  A recording observer and a recording policy share one
log, pinning the documented position of every hook on both loops; the
two loops must write the same log, and without the observer the fused
loop must call the policy's hooks in the same order.

**Attach rules.**  Every instrument refuses to attach to a started run.
A detach takes effect at the next ``advance`` call on both loops, and a
detach from a hook, inside a running ``advance``, raises.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from hashlib import blake2b
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.diverge import StateProbe
from repro.diverge.probe import snapshot_events
from repro.explain import attach_explain
from repro.explain.records import record_structure
from repro.obs import attach_spans
from repro.prof import attach_profiler
from repro.schedulers.frfcfs import FRFCFSScheduler
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.fused import fusable
from repro.sim.observer import HOOKS, Observer
from repro.sim.system import _EV_DONE, System
from repro.telemetry import Telemetry
from repro.trace import TraceRecorder
from repro.validate import attach_oracle
from repro.validate.fingerprint import fingerprint_run
from repro.workloads import make_intensity_workload
from tests.conftest import dispatch_loop

FIXTURE = Path(__file__).resolve().parents[1] / "goldens" / \
    "observer_digests.json"

CYCLES = 60_000
CHECKPOINT = 5_000
SHADOWS = ("stfm", "tcm", "parbs")


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return blake2b(payload.encode(), digest_size=12).hexdigest()


def _span_structure(collector) -> dict:
    return {
        "spans": [
            [span.thread_id, span.channel_id, span.bank_id, span.row,
             span.arrival, span.start_service, span.completion, span.kind,
             span.is_prefetch, [list(i) for i in span.intervals]]
            for span in collector.all_spans()
        ],
        "t_interference": collector.t_interference,
        "t_shared": collector.t_shared,
        "matrix": collector.matrix,
        "total_attributed": collector.total_attributed,
        "requests_completed": collector.requests_completed,
    }


#: the recorded runs model writes and prefetching; they take the fused
#: loop, and tests/engine/test_instrument_parity.py holds the dispatch
#: loop to the same outputs
RECORDED_CONFIG = SimConfig(
    run_cycles=CYCLES, num_threads=4, quantum_cycles=5_000,
    model_writes=True, prefetch_degree=2,
)


def observed_outputs(scheduler: str, config: SimConfig = RECORDED_CONFIG):
    """Every instrument's output on one observed run, and their counts."""
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    telemetry = Telemetry.observing(epoch_cycles=5_000)
    recorder = TraceRecorder()
    system = System(workload, make_scheduler(scheduler), config, seed=5,
                    telemetry=telemetry, observers=(recorder,))
    explain = attach_explain(system, shadows=SHADOWS)
    probe = StateProbe(ring=32).attach(system)

    system.start_run()
    checkpoints = []
    for limit in range(CHECKPOINT, CYCLES + 1, CHECKPOINT):
        system.advance(limit)
        checkpoints.append(probe.fingerprint())
    result = system.finish_run(CYCLES)

    outputs = {
        "result": fingerprint_run(result),
        "trace": telemetry.events,
        "spans": _span_structure(telemetry.spans),
        "explain": [explain.snapshot(),
                    [record_structure(r) for r in explain.records]],
        "probe": [checkpoints, probe.rings()],
        "recorder": [
            [tid, recorder.benchmarks[tid],
             [[e.cycle, e.channel, e.bank, e.row]
              for e in recorder.events[tid]]]
            for tid in sorted(recorder.events)
        ],
    }
    counts = {
        "events": len(telemetry.events),
        "spans": len(telemetry.spans.all_spans()),
        "decisions": explain.decisions_total,
        "misses_recorded": sum(len(v) for v in recorder.events.values()),
    }
    return outputs, counts


def observed_digests(scheduler: str) -> dict:
    """Digests of every instrument's output on one observed run."""
    outputs, counts = observed_outputs(scheduler)
    digests = {name: _digest(value) for name, value in outputs.items()}
    digests["counts"] = counts
    return digests


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_observer_outputs_match_the_recording(scheduler, fused_advances):
    expected = json.loads(FIXTURE.read_text())[scheduler]
    assert observed_digests(scheduler) == expected
    # every checkpointed advance of the recorded run took the fused loop
    assert len(fused_advances) == CYCLES // CHECKPOINT


# ----------------------------------------------------------------------
# hook order
# ----------------------------------------------------------------------

_TIMER = "order-test"


class LoggingPolicy(FRFCFSScheduler):
    """FR-FCFS that logs its hooks and keeps a periodic timer."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_attach(self):
        self.system.schedule_timer(1_500, _TIMER)

    def select(self, channel, bank_id, now):
        request = super().select(channel, bank_id, now)
        self.log.append(("policy", "select", request.request_id))
        return request

    def on_request_arrival(self, request, now):
        self.log.append(("policy", "arrival", request.request_id))

    def on_request_scheduled(self, request, waiting, busy_cycles, now):
        self.log.append(("policy", "grant", request.request_id))

    def on_request_complete(self, request, now):
        self.log.append(("policy", "complete", request.request_id))

    def on_quantum(self, snapshot, now):
        self.log.append(("policy", "quantum", now))

    def on_timer(self, now, key):
        self.log.append(("policy", "timer", now))
        self.system.schedule_timer(now + 1_500, _TIMER)


class LoggingObserver(Observer):
    def __init__(self, log):
        self.log = log
        self.violations = []

    def begin(self, system):
        self.log.append(("obs", "begin", system.now))
        if not snapshot_events(system):
            self.violations.append("begin before the queue was primed")

    def end(self, system, horizon):
        self.log.append(("obs", "end", horizon))

    def on_event(self, event):
        _time, _seq, kind, payload, _aux = event
        key = payload.request_id if kind == _EV_DONE else None
        self.log.append(("obs", "event", kind, key))

    def on_arrival(self, request, now):
        self.log.append(("obs", "arrival", request.request_id))

    def on_decision(self, channel, bank_id, request, now):
        self.log.append(("obs", "decision", request.request_id))
        if request not in channel.queues[bank_id]:
            self.violations.append("decision after start_service")

    def on_grant(self, request, waiting, access, completion, now):
        self.log.append(("obs", "grant", request.request_id))
        if request in waiting or request.start_service != now:
            self.violations.append("grant before start_service")

    def on_complete(self, request, now):
        self.log.append(("obs", "complete", request.request_id))

    def on_quantum(self, snapshot, now):
        self.log.append(("obs", "quantum", now))

    def on_timer(self, now, key):
        self.log.append(("obs", "timer", now))


def _logged_run(observed: bool):
    """A run of the logging policy, with the logging observer attached
    when ``observed``; returns (system, observer, shared log)."""
    log = []
    observer = LoggingObserver(log) if observed else None
    config = SimConfig(run_cycles=20_000, num_threads=4,
                       quantum_cycles=5_000)
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    system = System(workload, LoggingPolicy(log), config, seed=5,
                    observers=[observer] if observed else [])
    return system, observer, log


#: log entries whose last field is a request id (None for an event
#: without a request)
_KEYED_HOOKS = ("select", "arrival", "decision", "grant", "complete",
                "event")


def _run_relative(entries):
    """Log entries with request ids made run-relative (ids come from a
    process-global counter)."""
    def keyed(entry):
        return entry[1] in _KEYED_HOOKS and entry[-1] is not None

    base = min((entry[-1] for entry in entries if keyed(entry)), default=0)
    return [
        entry[:-1] + (entry[-1] - base,) if keyed(entry) else entry
        for entry in entries
    ]


def _policy_entries(log):
    """The policy's log entries, run-relative."""
    return _run_relative([entry for entry in log if entry[0] == "policy"])


@pytest.mark.parametrize("loop", ["reference", "fast"])
def test_hooks_fire_at_their_documented_positions(loop):
    """Observer hooks on the dispatch loop (``"reference"``) and on the
    fused loop (``"fast"``) sit at their documented positions, and the
    two loops log the same calls; the fused loop with no observer calls
    the policy's hooks in the same order."""
    system, observer, log = _logged_run(observed=True)
    if loop == "reference":
        with dispatch_loop():
            system.run()
    else:
        assert fusable(system)
        system.run()
        reference, _, reference_log = _logged_run(observed=True)
        with dispatch_loop():
            reference.run()
        assert _run_relative(log) == _run_relative(reference_log)
        plain, _, plain_log = _logged_run(observed=False)
        assert fusable(plain)
        plain.run()
        assert _policy_entries(plain_log) == _policy_entries(log)
    assert observer.violations == []
    assert log[0][:2] == ("obs", "begin") and log[-1] == ("obs", "end",
                                                          20_000)

    # after the policy's hook at the same site (decision: after select)
    after = {"arrival": "arrival", "decision": "select", "grant": "grant",
             "complete": "complete", "quantum": "quantum",
             "timer": "timer"}
    seen = dict.fromkeys(after, 0)
    for previous, entry in zip(log, log[1:]):
        if entry[0] == "obs" and entry[1] in after:
            assert previous == ("policy", after[entry[1]], entry[2]), entry
            seen[entry[1]] += 1
    assert all(seen.values()), seen

    # on_event before dispatch: a completion's event precedes the
    # policy's completion hook for that request
    for entry, following in zip(log, log[1:]):
        if entry[:3] == ("obs", "event", _EV_DONE):
            assert following == ("policy", "complete", entry[3])


def test_only_overridden_hooks_are_called_and_wrappers_intercept():
    calls = []

    class ArrivalsAndGrants(Observer):
        def on_arrival(self, request, now):
            calls.append("class")

        def on_grant(self, request, waiting, access, completion, now):
            calls.append("grant")

    observer = ArrivalsAndGrants()
    system = System(make_intensity_workload(0.75, num_threads=4, seed=3),
                    make_scheduler("frfcfs"),
                    SimConfig(run_cycles=5_000, num_threads=4), seed=5,
                    observers=[observer])
    # a per-instance wrapper installed before the run takes the calls,
    # and an overridden hook set to None on the instance is switched off
    observer.on_arrival = lambda request, now: calls.append("wrapper")
    observer.on_grant = None
    system.start_run()
    assert system._on_arrival and not system._on_grant
    # hooks the class does not override are never bound
    assert not any(getattr(system, "_" + hook) for hook in HOOKS
                   if hook not in ("on_arrival", "on_grant"))
    system.advance(5_000)
    assert calls and set(calls) == {"wrapper"}


def test_bare_loop_needs_no_observer_and_admits_stfm():
    """STFM keeps its own interference books, so its bare run takes the
    fused loop, and so does the same run with an observer attached."""
    def build(**kwargs):
        return System(make_intensity_workload(0.75, num_threads=4, seed=3),
                      make_scheduler("stfm"),
                      SimConfig(run_cycles=5_000, num_threads=4), seed=5,
                      **kwargs)

    assert fusable(build())
    observed = build(observers=[Observer()])
    assert fusable(observed)
    assert observed.run() == build().run()


# ----------------------------------------------------------------------
# attach rules
# ----------------------------------------------------------------------

INSTRUMENTS = {
    "oracle": attach_oracle,
    "profiler": attach_profiler,
    "probe": lambda system: StateProbe().attach(system),
    "spans": attach_spans,
    "explain": attach_explain,
    "trace": lambda system: system.attach(TraceRecorder()),
}


@pytest.mark.parametrize("instrument", sorted(INSTRUMENTS))
def test_attach_after_start_run_is_rejected(instrument):
    system = System(make_intensity_workload(0.75, num_threads=4, seed=3),
                    make_scheduler("tcm"),
                    SimConfig(run_cycles=5_000, num_threads=4), seed=5)
    system.start_run()
    with pytest.raises(RuntimeError, match="before system.run"):
        INSTRUMENTS[instrument](system)
    assert system.observers == []
    assert "run" not in vars(system)  # the profiler wrapped nothing
    assert system._tracer is None     # nor did the oracle add a sink



class EventCounter(Observer):
    """Counts events; optionally detaches itself from its first grant."""

    def __init__(self, detach_on_grant=False):
        self.events = 0
        self.detach_on_grant = detach_on_grant
        self.system = None

    def begin(self, system):
        self.system = system

    def on_event(self, event):
        self.events += 1

    def on_grant(self, request, waiting, access, completion, now):
        if self.detach_on_grant:
            self.system.detach(self)


def _on_loop(loop, system):
    """The context an ``advance`` of ``system`` takes ``loop`` in."""
    if loop == "reference":
        return dispatch_loop()
    assert fusable(system)
    return nullcontext()


@pytest.mark.parametrize("loop", ["reference", "fast"])
def test_detach_takes_effect_at_the_next_advance(loop):
    observer = EventCounter()
    system = System(make_intensity_workload(0.75, num_threads=4, seed=3),
                    make_scheduler("tcm"),
                    SimConfig(run_cycles=6_000, num_threads=4), seed=5,
                    observers=[observer])
    system.start_run()
    with _on_loop(loop, system):
        system.advance(3_000)
        seen = observer.events
        assert seen > 0
        system.detach(observer)
        system.advance(6_000)
    assert observer.events == seen
    assert not system._on_event and not system._on_grant


@pytest.mark.parametrize("loop", ["reference", "fast"])
def test_detach_from_a_hook_raises(loop):
    observer = EventCounter(detach_on_grant=True)
    system = System(make_intensity_workload(0.75, num_threads=4, seed=3),
                    make_scheduler("tcm"),
                    SimConfig(run_cycles=6_000, num_threads=4), seed=5,
                    observers=[observer])
    system.start_run()
    with _on_loop(loop, system):
        with pytest.raises(RuntimeError, match="between advance"):
            system.advance(6_000)
    assert observer in system.observers
    # the refusal is scoped to the running advance
    system.detach(observer)
    assert observer not in system.observers


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: observed_digests(name) for name in sorted(SCHEDULERS)},
        indent=2, sort_keys=True,
    ) + "\n")
    print(f"wrote {FIXTURE}")
