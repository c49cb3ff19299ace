"""Tests for repro.validate.oracle — the runtime invariant oracle.

Two halves: the oracle stays green over the whole scheduler registry
under every simulator mode (the simulator is correct), with the same
checks on the fused and the dispatch loop, and deliberately injected
bugs are *caught* (the oracle actually checks something) on the loop
each bug can reach.
"""

import pytest

from repro.config import DramTimings, SimConfig
from repro.dram.bank import Bank, BankAccess
from repro.dram.request import MemoryRequest
from repro.schedulers import SCHEDULERS, make_scheduler
from repro.schedulers.frfcfs import FRFCFSScheduler
from repro.sim import System
from repro.sim.fused import fusable
from repro.sim.observer import Observer
from repro.validate import (
    InvariantOracle,
    InvariantViolation,
    OracleConfig,
    attach_oracle,
    checked_run,
)
from repro.workloads import make_intensity_workload
from tests.conftest import dispatch_loop

pytestmark = pytest.mark.validate

# One full quantum plus slack: TCM clustering/shuffling and ATLAS
# ranking are live for the final 10k cycles, so their policy
# invariants are exercised, not vacuously skipped.
CFG = SimConfig(run_cycles=60_000, num_threads=8)
MIXES = [
    make_intensity_workload(intensity, num_threads=8, seed=7)
    for intensity in (0.25, 0.5, 1.0)
]
COLLECT = OracleConfig(raise_on_violation=False)


def small_system(scheduler="frfcfs", cfg=CFG, mix=1):
    return System(MIXES[mix], make_scheduler(scheduler), cfg, seed=11)


def dispatched_run(*args, **kwargs):
    """``checked_run`` on the dispatch loop: the parity reference."""
    with dispatch_loop():
        return checked_run(*args, **kwargs)


_MODES = {
    "writes": SimConfig(run_cycles=40_000, num_threads=8, model_writes=True),
    "detailed": SimConfig(run_cycles=40_000, num_threads=8,
                          timings=DramTimings(detailed=True)),
    "closed_page": SimConfig(run_cycles=40_000, num_threads=8,
                             timings=DramTimings(page_policy="closed")),
    "prefetch": SimConfig(run_cycles=40_000, num_threads=8,
                          prefetch_degree=2),
    "writes_prefetch": SimConfig(run_cycles=40_000, num_threads=8,
                                 model_writes=True, prefetch_degree=2),
}
_MODE_POINTS = [
    pytest.param(cfg, name, id=f"{mode}-{name}")
    for mode, cfg in _MODES.items()
    for name in (
        ("frfcfs", "tcm", "atlas", "parbs", "stfm")
        if mode in ("prefetch", "writes_prefetch") else ("frfcfs", "tcm")
    )
]


class TestOracleGreen:
    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_full_registry_on_three_mixes(self, name, fused_advances):
        """Every registered scheduler passes every check on every mix,
        on the fused loop, with exactly the dispatch loop's checks."""
        for mix in MIXES:
            result, report = checked_run(mix, name, CFG, seed=11)
            assert report.ok, report.violations[:3]
            assert result.total_requests > 0
            # every check category that needs no collector fired
            for category in ("conservation", "timing", "row_state"):
                assert report.checks.get(category, 0) > 0
            reference, dispatched = dispatched_run(mix, name, CFG, seed=11)
            assert dispatched.ok
            assert result == reference
            assert report.checks == dispatched.checks
        assert len(fused_advances) == len(MIXES)

    @pytest.mark.parametrize("cfg, name", _MODE_POINTS)
    def test_simulator_modes(self, name, cfg, fused_advances):
        """Every mode passes on both loops with the same checks; only
        detailed timings keep a checked run off the fused loop.  Every
        evaluated policy runs the prefetch modes, so each one-pass
        ``select`` is audited against ``priority`` at every grant with
        prefetches queued."""
        result, report = checked_run(MIXES[2], name, cfg, seed=3)
        assert report.ok, report.violations[:3]
        assert bool(fused_advances) == (not cfg.timings.detailed)
        reference, dispatched = dispatched_run(MIXES[2], name, cfg, seed=3)
        assert dispatched.ok
        assert result == reference
        assert report.checks == dispatched.checks

    def test_policy_checks_fire_for_tcm_and_atlas(self):
        _, tcm = checked_run(MIXES[1], "tcm", CFG, seed=11)
        _, atlas = checked_run(MIXES[1], "atlas", CFG, seed=11)
        assert tcm.checks.get("policy", 0) > 0
        assert atlas.checks.get("policy", 0) > 0

    def test_report_summary(self):
        _, report = checked_run(MIXES[0], "frfcfs", CFG, seed=11)
        text = report.summary()
        assert "OK" in text and "timing=" in text
        assert report.scheduler == "FR-FCFS"


class _ReleaseBankEarly(Observer):
    """Planted bug: frees each granted bank at once (``busy_until``)."""

    def __init__(self, system):
        self.banks = [channel.banks for channel in system.channels]

    def on_grant(self, request, waiting, access, completion, now):
        self.banks[request.channel_id][request.bank_id].busy_until = now


class _ForgetOpenRow(Observer):
    """Planted bug: closes each granted bank's row behind its back."""

    def __init__(self, system):
        self.banks = [channel.banks for channel in system.channels]

    def on_grant(self, request, waiting, access, completion, now):
        self.banks[request.channel_id][request.bank_id].open_row = None


class _WorstFRFCFS(FRFCFSScheduler):
    """Planted bug: a policy whose select grants the least-priority
    request.  A subclass, not an instance override, so the run stays
    on the fused loop."""

    def select(self, channel, bank_id, now):
        open_row = channel.banks[bank_id].open_row
        return min(
            channel.queues[bank_id],
            key=lambda r: (not r.is_prefetch,) + tuple(
                self.priority(r, r.row == open_row, now)
            ),
        )


class TestInjectedBugs:
    """Each test plants one bug and requires the oracle to catch it.

    The ``Bank.begin_access`` patches act at class level, which the
    fused loop (it inlines that method) cannot see, so those run on the
    dispatch loop; the observer and subclass bugs are caught on the
    fused loop."""

    def test_timing_bug_early_burst(self, monkeypatch):
        """A bank that returns data 10 cycles early violates Table 3."""
        original = Bank.begin_access

        def hasty(self, row, now, bus_free_until, activate_not_before=0,
                  thread_id=None):
            access = original(self, row, now, bus_free_until,
                              activate_not_before)
            return BankAccess(access.kind, access.data_start - 10,
                              access.data_end - 10, access.activate_time)

        monkeypatch.setattr(Bank, "begin_access", hasty)
        system = small_system()
        attach_oracle(system)
        with dispatch_loop():
            with pytest.raises(InvariantViolation, match=r"\[timing\]"):
                system.run()

    def test_row_state_bug_misclassified_access(self, monkeypatch):
        """A bank lying about hit/closed/conflict breaks the shadow
        row-buffer replay (violations are collected: the lie breaks the
        Table-3 timing check too)."""
        original = Bank.begin_access

        def liar(self, row, now, bus_free_until, activate_not_before=0,
                 thread_id=None):
            access = original(self, row, now, bus_free_until,
                              activate_not_before)
            return BankAccess("hit", access.data_start, access.data_end,
                              access.activate_time)

        monkeypatch.setattr(Bank, "begin_access", liar)
        system = small_system()
        oracle = attach_oracle(system, COLLECT)
        with dispatch_loop():
            system.run()
        assert any(
            v.startswith("[row_state]") for v in oracle.report.violations
        )

    def test_conservation_bug_double_enqueue(self):
        system = small_system()
        oracle = attach_oracle(system)
        request = MemoryRequest(
            thread_id=0, channel_id=0, bank_id=0, row=1, arrival=0
        )
        oracle.on_arrival(request, 0)
        with pytest.raises(InvariantViolation, match="enqueued twice"):
            oracle.on_arrival(request, 0)
        assert not oracle.report.ok

    def test_conservation_bug_forged_service_count(self):
        system = small_system()
        oracle = attach_oracle(system)
        result = system.run()
        system.channels[0].serviced_requests += 1
        with pytest.raises(InvariantViolation, match="channels serviced"):
            oracle.finish(result)

    def test_policy_bug_worst_choice(self):
        """A select() that picks the *minimum*-priority request must be
        flagged against the scheduler's own priority function."""
        system = small_system()
        scheduler = system.scheduler

        def worst_select(channel, bank_id, now):
            open_row = channel.banks[bank_id].open_row
            return min(
                channel.queues[bank_id],
                key=lambda r: (not r.is_prefetch,) + tuple(
                    scheduler.priority(r, r.row == open_row, now)
                ),
            )

        scheduler.select = worst_select   # pre-attach instance override
        attach_oracle(system)
        with pytest.raises(InvariantViolation, match=r"\[policy\]"):
            system.run()

    def test_grant_from_outside_the_queue_is_a_conservation_finding(self):
        """The policy audit scores only a request its queue holds; one
        granted from elsewhere is the conservation check's finding."""
        system = small_system()
        oracle = attach_oracle(system, COLLECT)
        channel = system.channels[0]
        queued = MemoryRequest(
            thread_id=0, channel_id=0, bank_id=0, row=1, arrival=0
        )
        stranger = MemoryRequest(
            thread_id=1, channel_id=0, bank_id=0, row=2, arrival=5
        )
        channel.queues[0].append(queued)
        oracle.on_arrival(queued, 0)
        oracle.on_arrival(stranger, 5)
        oracle.on_decision(channel, 0, stranger, 5)
        violations = oracle.report.violations
        assert any(v.startswith("[conservation]")
                   and "absent from its queue" in v for v in violations)
        assert not any(v.startswith("[policy]") for v in violations)

    def test_policy_bug_on_fused_loop(self, fused_advances):
        system = System(MIXES[1], _WorstFRFCFS(), CFG, seed=11)
        attach_oracle(system)
        with pytest.raises(InvariantViolation, match=r"\[policy\]"):
            system.run()
        assert fused_advances

    def test_timing_bug_on_fused_loop(self, fused_advances):
        """A bank freed at its grant takes a second request while the
        first one's burst is still under way."""
        system = small_system()
        system.attach(_ReleaseBankEarly(system))
        attach_oracle(system)
        with pytest.raises(InvariantViolation, match=r"\[timing\]"):
            system.run()
        assert fused_advances

    def test_row_state_bug_on_fused_loop(self, fused_advances):
        """A row closed behind the oracle's back turns its next hit or
        conflict into a closed access."""
        system = small_system()
        system.attach(_ForgetOpenRow(system))
        attach_oracle(system)
        with pytest.raises(InvariantViolation, match=r"\[row_state\]"):
            system.run()
        assert fused_advances

    def test_tcm_cluster_inversion_flagged(self):
        """Unit check: servicing a bandwidth-cluster request while a
        latency-cluster request waits at the same bank is a violation."""

        class FakeClustering:
            latency_cluster = (0,)
            bandwidth_cluster = (1,)

        class FakeTCM:
            name = "tcm"
            clustering = FakeClustering()

        def req(tid, rid):
            r = MemoryRequest(thread_id=tid, channel_id=0, bank_id=0,
                              row=rid, arrival=0)
            return r

        system = small_system()
        oracle = InvariantOracle(system, OracleConfig())
        latency_req, bandwidth_req = req(0, 1), req(1, 2)
        queue = [latency_req, bandwidth_req]
        with pytest.raises(InvariantViolation, match="bandwidth-cluster"):
            oracle._check_tcm(FakeTCM(), queue, bandwidth_req)
        # the reverse order is legal
        oracle._check_tcm(FakeTCM(), queue, latency_req)

    def test_atlas_starvation_inversion_flagged(self):
        class FakeParams:
            starvation_threshold = 100

        class FakeATLAS:
            name = "atlas"
            params = FakeParams()
            _attained = {}

        def req(arrival):
            return MemoryRequest(thread_id=0, channel_id=0, bank_id=0,
                                 row=1, arrival=arrival)

        system = small_system()
        oracle = InvariantOracle(system, OracleConfig())
        starving, fresh = req(0), req(990)
        with pytest.raises(InvariantViolation, match="starving"):
            oracle._check_atlas(FakeATLAS(), [starving, fresh], fresh, 1000)
        oracle._check_atlas(FakeATLAS(), [starving, fresh], starving, 1000)


class TestStarvationCap:
    def test_tight_cap_trips_under_contention(self):
        cfg = OracleConfig(starvation_cap=50, raise_on_violation=False)
        _, report = checked_run(MIXES[2], "fcfs", CFG, seed=11,
                                oracle_config=cfg)
        assert any("[starvation]" in v for v in report.violations)

    def test_generous_cap_is_quiet(self):
        cfg = OracleConfig(starvation_cap=10**9)
        _, report = checked_run(MIXES[2], "fcfs", CFG, seed=11,
                                oracle_config=cfg)
        assert report.ok and report.checks.get("starvation", 0) > 0


class TestAttachment:
    def test_detach_restores_everything(self):
        """Attach registers the observer and its tracer sink, and
        leaves the run on the fused loop; detach removes both."""
        system = small_system("tcm")
        oracle = attach_oracle(system)
        assert system.observers == [oracle]
        assert system._tracer.sinks == [oracle._sink]
        assert fusable(system)
        oracle.detach()
        assert system.observers == []
        assert system._tracer is None
        assert fusable(system)

    def test_detach_leaves_foreign_tracer_sinks(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry.in_memory(epoch_cycles=20_000, validate=False)
        system = System(MIXES[1], make_scheduler("frfcfs"), CFG, seed=11,
                        telemetry=telemetry)
        n_sinks = len(system._tracer.sinks)
        oracle = attach_oracle(system)
        assert len(system._tracer.sinks) == n_sinks + 1
        oracle.detach()
        assert len(system._tracer.sinks) == n_sinks

    def test_untouched_system_carries_no_hooks(self):
        system = small_system()
        assert system._tracer is None
        assert system.observers == []

    def test_attached_run_matches_plain_run(self, fused_advances):
        from repro.validate import run_outcome

        plain = small_system("parbs").run()
        system = small_system("parbs")
        attach_oracle(system)
        checked = system.run()
        assert run_outcome(plain) == run_outcome(checked)
        assert len(fused_advances) == 2   # both runs took the fused loop

    def test_collect_mode_gathers_instead_of_raising(self, monkeypatch):
        original = Bank.begin_access

        def hasty(self, row, now, bus_free_until, activate_not_before=0,
                  thread_id=None):
            access = original(self, row, now, bus_free_until,
                              activate_not_before)
            return BankAccess(access.kind, access.data_start - 10,
                              access.data_end - 10, access.activate_time)

        monkeypatch.setattr(Bank, "begin_access", hasty)
        system = small_system()
        oracle = attach_oracle(system, COLLECT)
        with dispatch_loop():
            system.run()
        assert not oracle.report.ok
        assert len(oracle.report.violations) > 1
