"""StateProbe: canonical snapshots, fingerprints, and the observer seam.

The probe's core promise is that state fingerprints depend on the
simulated state alone, not on the loop that produced it: the dispatch
loop (``"reference"`` below, forced by ``tests.conftest.dispatch_loop``)
and the fused loop (``"fast"``) must produce identical fingerprints for
every component at every checkpoint.  The reference side carries an
attached probe; the fused side stays unobserved and is fingerprinted
with :func:`fingerprint_state` between ``advance`` windows.
"""

import json
from collections import deque
from contextlib import nullcontext

import pytest

from repro.config import SimConfig
from repro.diverge import COMPONENTS, StateProbe, snapshot_state
from repro.diverge.probe import _event_entry, fingerprint_state
from repro.obs.spans import SpanCollector
from repro.sim.fused import fusable
from repro.sim.observer import Observer
from repro.telemetry import Telemetry
from repro.workloads import make_intensity_workload
from tests.conftest import dispatch_loop

CYCLES = 6_000


def _system(loop="reference", seed=11, scheduler="tcm"):
    """A system bound for the dispatch loop (``"reference"``: its
    ``advance`` and ``run`` run inside ``dispatch_loop()``) or the fused
    loop (``"fast"``)."""
    from repro import System, make_scheduler

    workload = make_intensity_workload(0.5, num_threads=4, seed=7)
    config = SimConfig(run_cycles=CYCLES)
    system = System(workload, make_scheduler(scheduler), config, seed=seed)
    if loop == "reference":
        advance = system.advance

        def advance_on_dispatch_loop(limit):
            with dispatch_loop():
                advance(limit)

        # a per-instance wrapper on advance itself; run() calls it too
        system.advance = advance_on_dispatch_loop
    return system


def _probed(loop="reference", seed=11, scheduler="tcm"):
    system = _system(loop, seed, scheduler)
    probe = StateProbe().attach(system)
    system.start_run()
    return system, probe


def _stepped(loop, scheduler="tcm"):
    """A started system and a function fingerprinting its state; the
    fused side stays unobserved."""
    if loop == "reference":
        system, probe = _probed(scheduler=scheduler)
        return system, probe.fingerprint
    system = _system("fast", scheduler=scheduler)
    system.start_run()
    assert fusable(system)
    return system, lambda: fingerprint_state(system)


class TestSnapshots:
    def test_components_cover_snapshot(self):
        system, probe = _probed()
        system.advance(2_000)
        snapshot = probe.snapshot()
        assert set(snapshot) == set(COMPONENTS)

    def test_snapshot_is_json_native(self):
        system, probe = _probed()
        system.advance(2_000)
        snapshot = probe.snapshot()
        # a canonical round trip must be loss-free (tuples notwithstanding)
        text = json.dumps(snapshot, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text

    def test_fingerprint_keys_and_shape(self):
        system, probe = _probed()
        system.advance(2_000)
        fingerprint = probe.fingerprint()
        assert set(fingerprint) == set(COMPONENTS)
        for digest in fingerprint.values():
            int(digest, 16)  # blake2b hexdigest
            assert len(digest) == 16

    def test_component_selection(self):
        system = _system()
        probe = StateProbe(components=("dram", "progress")).attach(system)
        system.start_run()
        system.advance(1_000)
        assert set(probe.fingerprint()) == {"dram", "progress"}

    def test_module_level_helpers_match_probe(self):
        system, probe = _probed()
        system.advance(2_000)
        assert snapshot_state(system) == probe.snapshot()
        assert fingerprint_state(system) == probe.fingerprint()


class TestBackendIndependence:
    @pytest.mark.parametrize("scheduler", ["tcm", "atlas", "frfcfs"])
    def test_reference_and_fast_fingerprints_match(self, scheduler):
        ref, ref_fingerprint = _stepped("reference", scheduler)
        fast, fast_fingerprint = _stepped("fast", scheduler)
        for cycle in range(1_000, CYCLES + 1, 1_000):
            ref.advance(cycle)
            fast.advance(cycle)
            assert ref_fingerprint() == fast_fingerprint(), (
                f"{scheduler}: the loops disagree at cycle {cycle}"
            )

    def test_different_seeds_fingerprint_differently(self):
        a, probe_a = _probed(seed=11)
        b, probe_b = _probed(seed=12)
        a.advance(2_000)
        b.advance(2_000)
        assert probe_a.fingerprint() != probe_b.fingerprint()


class TestSteppingInvariance:
    """``advance(a); advance(b)`` must be bit-identical to
    ``advance(b)`` — the soundness basis of re-execution bisection."""

    @pytest.mark.parametrize("loop", ["reference", "fast"])
    def test_stepped_equals_one_shot(self, loop):
        stepped, stepped_fingerprint = _stepped(loop)
        for cycle in (500, 1_700, 1_701, 4_000, CYCLES):
            stepped.advance(cycle)
        oneshot, oneshot_fingerprint = _stepped(loop)
        oneshot.advance(CYCLES)
        assert stepped_fingerprint() == oneshot_fingerprint()

    @pytest.mark.parametrize("loop", ["reference", "fast"])
    def test_stepped_run_result_matches_plain_run(self, loop):
        stepped = _system(loop)
        stepped.start_run()
        for cycle in (1_000, 2_500, CYCLES):
            stepped.advance(cycle)
        result = stepped.finish_run(CYCLES)
        plain = _system(loop).run(CYCLES)
        assert result == plain

    def test_detached_run_unchanged_by_probe_elsewhere(self):
        # a probe on one system must not perturb another bare run
        probed, _ = _probed("fast")
        probed.advance(CYCLES)
        plain = _system("fast").run(CYCLES)
        again = _system("fast").run(CYCLES)
        assert plain.total_requests == again.total_requests


class TestAttachment:
    def test_double_attach_rejected(self):
        system = _system()
        StateProbe().attach(system)
        with pytest.raises(RuntimeError):
            StateProbe().attach(system)

    def test_detach_frees_the_seam(self):
        system = _system()
        probe = StateProbe().attach(system)
        probe.detach()
        assert probe not in system.observers
        StateProbe().attach(system)

    def test_double_start_rejected(self):
        system = _system()
        system.start_run()
        with pytest.raises(RuntimeError):
            system.start_run()

    def test_rings_capture_events_and_decisions(self):
        system, probe = _probed()
        system.advance(3_000)
        rings = probe.rings()
        assert rings["events"], "no events captured"
        assert rings["decisions"], "no scheduler decisions captured"
        cycles = [entry[0] for entry in rings["events"]]
        assert cycles == sorted(cycles)


class _DigestAtPop(Observer):
    """Digests each event the moment it is popped."""

    def __init__(self, ring):
        self.entries = deque(maxlen=ring)

    def on_event(self, event):
        time, _seq, kind, payload, aux = event
        self.entries.append(_event_entry(time, kind, payload, aux))


class TestRingsDigestOnRead:
    """The probe rings each popped event as it is and digests a
    completion's request when ``rings()`` is read.  That equals a
    digest taken at the pop because a completion's request was granted,
    and no queue holds a granted request: the span collector's grant
    rule (``interference``) and PAR-BS's batch marks, the writers of
    queued requests, never reach it again."""

    @pytest.mark.parametrize("loop", ["reference", "fast"])
    @pytest.mark.parametrize("scheduler", ["parbs", "stfm"])
    def test_digest_on_read_equals_digest_at_pop(self, loop, scheduler):
        from repro import System, make_scheduler

        ring = 4_096  # old completions stay in the ring until read
        config = SimConfig(run_cycles=CYCLES, num_threads=4,
                           model_writes=True, prefetch_degree=2)
        system = System(make_intensity_workload(0.75, num_threads=4, seed=3),
                        make_scheduler(scheduler), config, seed=5,
                        telemetry=Telemetry(spans=SpanCollector()))
        probe = StateProbe(ring=ring).attach(system)
        at_pop = system.attach(_DigestAtPop(ring))
        system.start_run()
        if loop == "fast":
            assert fusable(system)
        for limit in range(500, CYCLES + 1, 500):
            with dispatch_loop() if loop == "reference" else nullcontext():
                system.advance(limit)
            assert probe.rings()["events"] == list(at_pop.entries), limit
        completed = [entry[2] for entry in at_pop.entries
                     if entry[1] == "done"]
        # the rings held completions that waited behind other threads
        # (interference) and, under PAR-BS, batch-marked ones
        assert any(request[11] > 0 for request in completed)
        if scheduler == "parbs":
            assert any(request[8] for request in completed)
        assert any(request[7] for request in completed)  # prefetches
