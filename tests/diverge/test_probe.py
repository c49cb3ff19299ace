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

import pytest

from repro.config import SimConfig
from repro.diverge import COMPONENTS, StateProbe, snapshot_state
from repro.diverge.probe import fingerprint_state
from repro.sim.fused import fusable
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
