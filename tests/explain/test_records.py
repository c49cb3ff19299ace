"""Decision records: per-grant capture, margins, tie provenance.

The record contract: every grant produces exactly one
:class:`DecisionRecord` whose candidate set mirrors the bank queue at
decision time, whose winner matches the actual grant, and whose margin
names the priority component that decided it — feasible because
``priority`` is a pure decision function by policy contract.
"""

import pytest

from repro.config import SimConfig
from repro.explain import (
    CLASS_BIT,
    TIE_ONLY,
    TIE_PRIORITY,
    TIE_QUEUE_ORDER,
    attach_explain,
    margin_of,
    record_structure,
)
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.system import System
from repro.workloads import make_intensity_workload

CYCLES = 6_000


def _explained(scheduler="tcm", shadows=(), keep_records=None,
               num_threads=4, seed=1, **cfg):
    config = SimConfig(run_cycles=CYCLES, num_threads=num_threads,
                       quantum_cycles=2_000, **cfg)
    workload = make_intensity_workload(0.75, num_threads=num_threads,
                                       seed=3)
    system = System(workload, make_scheduler(scheduler), config, seed=seed)
    collector = attach_explain(system, shadows=shadows,
                               keep_records=keep_records)
    system.run()
    return system, collector


class TestRecordCapture:
    def test_one_record_per_grant(self):
        system, collector = _explained()
        assert collector.decisions_total == system.sched_decisions
        assert len(collector.records) == collector.decisions_total
        assert collector.decisions_total > 0

    def test_indices_are_the_grant_counter(self):
        _, collector = _explained()
        assert [r.index for r in collector.records] == \
            list(range(collector.decisions_total))

    def test_winner_is_a_candidate(self):
        _, collector = _explained()
        for record in collector.records:
            ids = [c.request_id for c in record.candidates]
            assert record.winner_request_id in ids
            winner = record.candidates[ids.index(record.winner_request_id)]
            assert winner.thread_id == record.winner_thread_id

    def test_winner_key_is_maximal(self):
        # TCM's select returns a request of maximal priority (the
        # oracle audits every grant for it), so the winner's recorded
        # key must top the candidate set
        _, collector = _explained()
        for record in collector.records:
            ids = [c.request_id for c in record.candidates]
            winner = record.candidates[ids.index(record.winner_request_id)]
            assert winner.key == max(c.key for c in record.candidates)

    def test_timestamps_monotone(self):
        _, collector = _explained()
        nows = [r.now for r in collector.records]
        assert nows == sorted(nows)


class TestTieProvenance:
    def test_provenance_vocabulary(self):
        _, collector = _explained()
        seen = {r.tie_break for r in collector.records}
        assert seen <= {TIE_ONLY, TIE_PRIORITY, TIE_QUEUE_ORDER}
        # a contended mix must exercise at least the first two
        assert TIE_ONLY in seen and TIE_PRIORITY in seen

    def test_only_candidate_has_no_margin(self):
        _, collector = _explained()
        for record in collector.records:
            if record.tie_break == TIE_ONLY:
                assert len(record.candidates) == 1
                assert record.margin is None
                assert record.tied == 1
            else:
                assert len(record.candidates) > 1
                assert record.margin is not None

    def test_priority_win_is_uniquely_maximal(self):
        _, collector = _explained()
        for record in collector.records:
            if record.tie_break == TIE_PRIORITY:
                assert record.margin.component is not None
                assert record.margin.delta > 0
                assert record.tied == 1

    def test_queue_order_tie_is_exact(self):
        _, collector = _explained()
        for record in collector.records:
            if record.tie_break == TIE_QUEUE_ORDER:
                assert record.margin.component is None
                assert record.margin.delta == 0.0
                assert record.tied >= 2
                # queue order resolves forward: the winner precedes the
                # runner-up, so they cannot be the same request
                assert record.margin.runner_up_request_id != \
                    record.winner_request_id

    @pytest.mark.parametrize("prefetch_degree", [0, 2])
    def test_margin_is_margin_of_winner_and_runner_up(self,
                                                      prefetch_degree):
        system, collector = _explained(prefetch_degree=prefetch_degree)
        names = system.scheduler.PRIORITY_COMPONENTS
        margins = 0
        for record in collector.records:
            if record.margin is None:
                continue
            by_id = {c.request_id: c for c in record.candidates}
            winner = by_id[record.winner_request_id]
            runner_up = by_id[record.margin.runner_up_request_id]
            assert (record.margin.component, record.margin.delta) == \
                margin_of(winner.key, runner_up.key, names)
            margins += 1
        assert margins > 0

    def test_aggregates_match_records(self):
        _, collector = _explained()
        assert collector.only_candidate == sum(
            1 for r in collector.records if r.tie_break == TIE_ONLY
        )
        assert collector.ties == sum(
            1 for r in collector.records if r.tie_break == TIE_QUEUE_ORDER
        )
        assert sum(collector.decided_by.values()) == sum(
            1 for r in collector.records if r.tie_break == TIE_PRIORITY
        )


class TestComponents:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_every_policy_names_its_slots(self, scheduler):
        """No registry policy falls back to positional slotN names."""
        _, collector = _explained(scheduler=scheduler)
        assert collector.decisions_total > 0
        record = collector.records[-1]
        for candidate in record.candidates:
            names = tuple(candidate.components)
            assert names, f"{scheduler}: empty component decomposition"
            assert not any(n.startswith("slot") for n in names), (
                f"{scheduler}: fell back to positional names {names}"
            )

    def test_components_decompose_the_key(self):
        _, collector = _explained()
        for record in collector.records:
            for candidate in record.candidates:
                # slot 0 of the key is the demand class bit; the
                # components cover the policy tuple behind it
                assert len(candidate.key) == \
                    len(candidate.components) + 1
                assert tuple(candidate.components.values()) == \
                    candidate.key[1:]

    def test_tcm_vocabulary(self):
        _, collector = _explained(scheduler="tcm")
        candidate = collector.records[-1].candidates[0]
        assert tuple(candidate.components) == ("rank", "row_hit", "age")

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_explain_components_agrees_with_priority(self, scheduler):
        """The richer introspection API stays consistent: its
        PRIORITY_COMPONENTS entries equal the live priority tuple, and
        the ``key=`` passthrough is equivalent to re-evaluating."""
        config = SimConfig(run_cycles=CYCLES, num_threads=4,
                           quantum_cycles=2_000)
        workload = make_intensity_workload(0.75, num_threads=4, seed=3)
        system = System(workload, make_scheduler(scheduler), config,
                        seed=1)
        system.start_run()
        system.advance(CYCLES // 2)
        sched = system.scheduler
        queued = [
            (channel, bank_id, request)
            for channel in system.channels
            for bank_id, queue in enumerate(channel.queues)
            for request in queue
        ]
        assert queued, "mid-run system holds no queued requests"
        now = system.now
        for channel, bank_id, request in queued[:8]:
            row_hit = request.row == channel.banks[bank_id].open_row
            prio = sched.priority(request, row_hit, now)
            fresh = sched.explain_components(request, row_hit, now)
            passed = sched.explain_components(request, row_hit, now,
                                              key=prio)
            assert fresh == passed
            for name, value in zip(sched.PRIORITY_COMPONENTS, prio):
                assert passed[name] == value


class TestMarginOf:
    def test_first_differing_slot_named(self):
        names = ("rank", "row_hit", "age")
        component, delta = margin_of(
            (True, 3, True, -10), (True, 2, True, -5), names
        )
        assert component == "rank" and delta == 1.0

    def test_class_bit_slot(self):
        component, delta = margin_of((True, 1), (False, 1), ("rank",))
        assert component == CLASS_BIT and delta == 1.0

    def test_exact_tie(self):
        component, delta = margin_of((True, 1), (True, 1), ("rank",))
        assert component is None and delta == 0.0

    def test_unnamed_slot_falls_back(self):
        component, _ = margin_of((True, 1, 9), (True, 1, 7), ("rank",))
        assert component == "slot1"


class TestRecordStructure:
    def test_structure_ignores_request_ids(self):
        """Two runs in one process allocate different global request
        ids for the same simulated requests; the run-comparable
        structure must not see them."""
        _, first = _explained()
        _, second = _explained()
        assert [record_structure(r) for r in first.records] == \
            [record_structure(r) for r in second.records]

    def test_structure_sees_decisions(self):
        _, a = _explained(seed=1)
        _, b = _explained(seed=2)
        assert [record_structure(r) for r in a.records] != \
            [record_structure(r) for r in b.records]


class TestRetention:
    def test_ring_buffer_keeps_latest(self):
        _, collector = _explained(keep_records=16)
        assert len(collector.records) == 16
        assert collector.records[-1].index == collector.decisions_total - 1
        assert collector.last_record is collector.records[-1]

    def test_keep_all(self):
        _, collector = _explained(keep_records=None)
        assert len(collector.records) == collector.decisions_total

    def test_snapshot_reports_kept(self):
        _, collector = _explained(keep_records=16)
        assert collector.snapshot()["records_kept"] == 16
