"""Collector lifecycle, observer-seam neutrality, and aggregates."""

import json

import pytest

from repro.config import SimConfig
from repro.explain import ExplainCollector, attach_explain
from repro.schedulers.registry import make_scheduler
from repro.sim.fused import fusable
from repro.sim.system import System
from repro.workloads import make_intensity_workload
from tests.conftest import dispatch_loop

CYCLES = 6_000


def _system(num_threads=4, seed=1, **cfg):
    config = SimConfig(run_cycles=CYCLES, num_threads=num_threads,
                       quantum_cycles=2_000, **cfg)
    workload = make_intensity_workload(0.75, num_threads=num_threads,
                                       seed=3)
    return System(workload, make_scheduler("tcm"), config, seed=seed)


def _fingerprint(result):
    return (
        result.total_requests,
        tuple(result.ipcs),
        tuple(t.misses for t in result.threads),
        result.row_hits,
        result.row_conflicts,
    )


class TestAttach:
    def test_double_attach_rejected(self):
        system = _system()
        attach_explain(system)
        with pytest.raises(RuntimeError, match="already carries"):
            attach_explain(system)

    def test_attach_after_start_rejected(self):
        system = _system()
        system.start_run()
        system.advance(100)
        with pytest.raises(RuntimeError, match="before system.run"):
            attach_explain(system)

    def test_detach_releases_the_seam(self):
        system = _system()
        collector = attach_explain(system)
        collector.detach()
        assert collector not in system.observers
        # the seam is free again
        attach_explain(system)

    def test_unknown_shadow_policy_rejected(self):
        system = _system()
        with pytest.raises(KeyError, match="unknown scheduler"):
            attach_explain(system, shadows=("not-a-policy",))


class TestObserverNeutrality:
    @pytest.mark.parametrize("loop", ["reference", "fast"])
    def test_results_bit_identical(self, loop):
        """Attached (with a shadow) on either loop — the dispatch loop
        (``"reference"``) or the fused loop (``"fast"``) — vs detached:
        same results."""
        plain = _system().run()
        observed_system = _system()
        attach_explain(observed_system, shadows=("frfcfs",))
        if loop == "reference":
            with dispatch_loop():
                observed = observed_system.run()
        else:
            observed = observed_system.run()
        assert _fingerprint(observed) == _fingerprint(plain)

    def test_explain_runs_on_the_fused_loop(self):
        system = _system()
        collector = attach_explain(system)
        assert isinstance(collector, ExplainCollector)
        assert fusable(system)
        system.run()
        # the fused loop fires on_decision at every grant
        assert collector.decisions_total == system.sched_decisions
        assert collector.decisions_total > 0


class TestAggregates:
    def test_grant_accounting_is_total(self):
        system = _system()
        collector = attach_explain(system, shadows=("frfcfs", "atlas"))
        system.run()
        decisions = collector.decisions_total
        assert sum(collector.actual_granted) == decisions
        for shadow in collector.shadows:
            assert sum(shadow.granted) == decisions
            assert 0 <= shadow.agreed <= decisions
            assert sum(shadow.redirected_to) == decisions - shadow.agreed
            assert sum(shadow.redirected_from) == decisions - shadow.agreed

    def test_disagreement_matrix_shape(self):
        system = _system()
        collector = attach_explain(system, shadows=("frfcfs", "atlas"))
        system.run()
        matrix = collector.disagree
        k = len(collector.labels)
        assert k == 3 and len(matrix) == k
        for i in range(k):
            assert matrix[i][i] == 0
            for j in range(k):
                assert matrix[i][j] == matrix[j][i]
                assert 0 <= matrix[i][j] <= collector.decisions_total
        # row 0 vs shadow i is exactly that shadow's disagreement count
        for i, shadow in enumerate(collector.shadows, start=1):
            assert matrix[0][i] == \
                collector.decisions_total - shadow.agreed

    def test_snapshot_json_round_trip(self):
        system = _system()
        collector = attach_explain(system, shadows=("frfcfs",))
        system.run()
        snapshot = collector.snapshot()
        text = json.dumps(snapshot, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text
        assert snapshot["primary"] == system.scheduler.name
        assert snapshot["decisions"] == collector.decisions_total
        assert snapshot["policies"] == collector.labels
        shadow = snapshot["shadows"][0]
        assert shadow["agreed"] + shadow["disagreed"] == \
            snapshot["decisions"]

    def test_cluster_timeline_tracks_the_primary(self):
        system = _system()
        collector = attach_explain(system)
        system.run()
        assert collector.cluster_source == system.scheduler.name
        assert collector.cluster_timeline, "no quantum boundary crossed"
        for entry in collector.cluster_timeline:
            assert set(entry) == {"now", "quantum", "latency", "flips"}


class TestStarvationWatch:
    def test_tiny_threshold_fires_events(self):
        system = _system()
        collector = attach_explain(system, starvation_threshold=200)
        system.run()
        assert collector.starvation_events, (
            "a contended run must cross a 200-cycle pending age"
        )
        for event in collector.starvation_events:
            assert event["age"] > 200
            assert event["pending"] >= 1
            assert 0 <= event["tid"] < system.workload.num_threads

    def test_max_pending_age_covers_events(self):
        system = _system()
        collector = attach_explain(system, starvation_threshold=200)
        system.run()
        for event in collector.starvation_events:
            assert collector.max_pending_age[event["tid"]] >= event["age"]

    def test_default_threshold_quiet_on_short_runs(self):
        system = _system()
        collector = attach_explain(system)
        system.run()
        assert collector.starvation_events == []

