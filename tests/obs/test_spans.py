"""Tests for repro.obs.spans — request-lifecycle span collection."""

import pytest

from repro.config import DramTimings, SimConfig
from repro.obs.spans import (
    CAUSE_QUEUE,
    SpanCollector,
    attach_spans,
)
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.telemetry import Telemetry
from repro.workloads import make_intensity_workload

CFG = SimConfig(run_cycles=50_000, num_threads=4)
MIX = make_intensity_workload(1.0, num_threads=4, seed=3)


def collected_run(scheduler="frfcfs", cfg=CFG, workload=MIX, seed=9):
    collector = SpanCollector()
    system = System(workload, make_scheduler(scheduler), cfg, seed=seed,
                    telemetry=Telemetry(spans=collector))
    result = system.run()
    return result, collector


class TestTiling:
    """Completed spans tile [arrival, completion) exactly."""

    @pytest.mark.parametrize(
        "cfg",
        [
            CFG,
            SimConfig(run_cycles=40_000, num_threads=4, model_writes=True),
            SimConfig(run_cycles=40_000, num_threads=4,
                      timings=DramTimings(detailed=True)),
            SimConfig(run_cycles=40_000, num_threads=4, prefetch_degree=2),
        ],
        ids=["default", "writes", "detailed", "prefetch"],
    )
    def test_intervals_chain_from_arrival_to_completion(self, cfg):
        _, collector = collected_run(cfg=cfg)
        assert collector.spans, "no spans collected"
        for span in collector.spans:
            cursor = span.arrival
            for interval in span.intervals:
                assert interval.start == cursor, span
                assert interval.end > interval.start, span
                cursor = interval.end
            assert cursor == span.completion, span
            assert sum(i.cycles for i in span.intervals) == span.latency

    def test_cause_totals_sum_to_latency(self):
        _, collector = collected_run()
        for span in collector.spans:
            assert sum(span.cycles_by_cause().values()) == span.latency
            assert 0 <= span.interference_cycles() <= span.latency

    def test_queueing_property(self):
        _, collector = collected_run()
        for span in collector.spans:
            assert span.queueing == span.start_service - span.arrival
            assert span.queueing >= 0


class TestPartials:
    def test_partial_waits_tile_but_stay_out_of_the_matrix(self):
        _, collector = collected_run()
        partials = [
            i
            for span in collector.spans
            for i in span.intervals
            if i.partial
        ]
        # a contended 4-thread mix always produces arrivals mid-service
        assert partials
        assert all(i.cause == CAUSE_QUEUE for i in partials)
        # the matrix counts only non-partial other-thread queue waits
        from repro.obs.attribution import span_matrix

        assert span_matrix(collector) == collector.matrix
        partial_cycles = sum(
            i.cycles
            for span in collector.spans
            for i in span.intervals
            if i.partial and i.culprit != span.thread_id
        )
        assert partial_cycles > 0
        grand = sum(sum(row) for row in collector.matrix)
        assert grand == collector.total_attributed


class TestLiteTier:
    """The grant-rule books, which every collector keeps."""

    def test_request_interference_populated_without_stfm(self):
        """Satellite (a): every scheduler's requests carry the
        grant-rule interference cycles, not just STFM's."""
        _, collector = collected_run(scheduler="fcfs")
        assert sum(collector.t_interference) > 0
        assert any(
            span.interference_cycles() > 0 for span in collector.spans
        )


class TestBinding:
    def test_attach_spans_after_run_start_raises(self):
        system = System(MIX, make_scheduler("fcfs"), CFG, seed=9)
        system.run()
        with pytest.raises(RuntimeError, match="before system.run"):
            attach_spans(system)

    def test_spans_do_not_change_the_run(self):
        plain = System(MIX, make_scheduler("tcm"), CFG, seed=9).run()
        observed, _ = collected_run(scheduler="tcm")
        assert observed.total_requests == plain.total_requests
        assert observed.ipcs == plain.ipcs
        assert observed.row_hits == plain.row_hits
