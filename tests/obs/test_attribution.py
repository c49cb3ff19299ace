"""Tests for repro.obs.attribution — the interference matrix and its
conservation laws, across the whole scheduler registry."""

import pytest

from repro.config import SimConfig
from repro.obs import SpanCollector, attribution_report, reconcile
from repro.obs.attribution import (
    ReconciliationError,
    cause_breakdown,
    estimated_slowdown,
    span_matrix,
)
from repro.schedulers import SCHEDULERS, make_scheduler
from repro.sim import System
from repro.telemetry import Telemetry
from repro.workloads import (
    RANDOM_ACCESS,
    STREAMING,
    make_intensity_workload,
    workload_from_specs,
)

CFG = SimConfig(run_cycles=50_000, num_threads=4)
MIX = make_intensity_workload(1.0, num_threads=4, seed=3)


def observed(scheduler_name, workload=MIX, cfg=CFG, seed=9):
    collector = SpanCollector()
    scheduler = make_scheduler(scheduler_name)
    system = System(workload, scheduler, cfg, seed=seed,
                    telemetry=Telemetry(spans=collector))
    system.run()
    return collector, scheduler


class TestEverySchedulerReconciles:
    """The PR's acceptance bar: for every registered scheduler on a
    4-thread mix, the books balance — zero diagonal, row sums equal to
    victim totals, grand total conserved, intervals rebuild the matrix."""

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_conservation_and_zero_diagonal(self, name):
        collector, scheduler = observed(name)
        stfm_totals = getattr(scheduler, "_t_interference", None)
        checks = reconcile(collector, stfm_totals=stfm_totals, strict=True)
        assert all(v == "ok" for v in checks.values()), checks
        assert collector.total_attributed > 0
        assert all(collector.matrix[t][t] == 0 for t in range(4))
        if name == "stfm":
            assert "stfm_shadow_exact" in checks

    def test_stfm_shadow_matches_exactly(self):
        collector, scheduler = observed("stfm")
        assert list(scheduler._t_interference) == collector.t_interference
        assert list(scheduler._t_shared) == collector.t_shared


class TestMicrobenchPair:
    """Figure 2's story, read off the matrix: the streaming thread
    (99% row-buffer locality) hogs the banks and is the dominant
    culprit for the random-access thread's delay."""

    def test_streaming_hog_dominates_blame(self):
        pair = workload_from_specs("pair", [RANDOM_ACCESS, STREAMING])
        cfg = SimConfig(run_cycles=100_000, num_threads=2)
        collector, _ = observed("frfcfs", workload=pair, cfg=cfg, seed=5)
        report = attribution_report(collector)
        inflicted_on_random = report.matrix[0][1]
        inflicted_on_streaming = report.matrix[1][0]
        assert inflicted_on_random > 10 * inflicted_on_streaming
        assert report.culprit_totals[1] > report.culprit_totals[0]
        assert (report.estimated_slowdowns[0]
                > report.estimated_slowdowns[1])


class TestReportShape:
    def test_report_fields_and_json(self):
        collector, _ = observed("tcm")
        report = attribution_report(
            collector, true_slowdowns=[1.5, 1.2, 1.1, 1.3]
        )
        assert report.num_threads == 4
        assert report.victim_totals == [sum(r) for r in report.matrix]
        n = report.num_threads
        assert report.culprit_totals == [
            sum(report.matrix[v][c] for v in range(n)) for c in range(n)
        ]
        assert all(s >= 1.0 for s in report.estimated_slowdowns)
        assert report.causes is not None and len(report.causes) == 4
        assert report.latencies is not None
        payload = report.to_json()
        assert payload["matrix"] == report.matrix
        assert payload["true_slowdowns"] == [1.5, 1.2, 1.1, 1.3]
        assert all(v == "ok" for v in payload["checks"].values())

    def test_render_matrix_text(self):
        # the attribution matrix is a table of the run report's spans
        # section
        from repro.obs.aggregate import RunObservation
        from repro.obs.text import render_run_text

        collector, _ = observed("frfcfs")
        report = attribution_report(collector)
        run = RunObservation(workload="mix", scheduler="FRFCFS", seed=9,
                             cycles=CFG.run_cycles,
                             benchmarks=["a", "b", "c", "d"],
                             report=report, samples=[])
        text = render_run_text(run)
        assert "victim \\ culprit" in text
        assert "est_slowdown" in text
        assert "t0:a" in text
        rows = [line.split() for line in text.splitlines()]
        assert ["t0:a", *map(str, report.matrix[0]),
                str(report.victim_totals[0])] in rows
        assert ["caused", *map(str, report.culprit_totals),
                str(report.total_attributed)] in rows
        # no alone runs: the true slowdown prints as '-'
        assert ["t0:a", f"{report.estimated_slowdowns[0]:.3f}", "-"] in rows

    def test_estimated_slowdown_floor(self):
        assert estimated_slowdown(999, 500) == 1.0
        assert estimated_slowdown(2000, 1000) == 2.0


class TestShortRunEstimate:
    """The grant rule charges requests still queued at the horizon,
    which have no latency in ``t_shared`` yet.  The estimate takes
    interference over completed requests only, or a short run's books
    let interference exceed shared latency and the ``max(1, ...)``
    floor returns ``shared`` itself (``obs --intensity 0.75 --cycles
    20000`` printed 45126.000 for a thread whose true slowdown is
    30.4)."""

    def test_estimate_counts_completed_requests_only(self):
        cfg = SimConfig(run_cycles=20_000)
        workload = make_intensity_workload(
            0.75, num_threads=cfg.num_threads, seed=0
        )
        collector, _ = observed("tcm", workload, cfg, seed=0)
        report = attribution_report(collector)
        shared = collector.t_shared
        assert [
            tid for tid, estimate in enumerate(report.estimated_slowdowns)
            if estimate == shared[tid]
        ] == []
        assert all(
            completed <= shared[tid]
            for tid, completed in enumerate(collector.completed_interference)
        )
        # the run does leave charged requests queued at the horizon
        assert any(
            total > shared[tid]
            for tid, total in enumerate(collector.t_interference)
        )


class TestReconcileFailures:
    def test_corrupt_matrix_raises(self):
        collector, _ = observed("frfcfs")
        collector.matrix[0][0] += 7
        with pytest.raises(ReconciliationError, match="diagonal"):
            reconcile(collector, strict=True)

    def test_non_strict_reports_instead(self):
        collector, _ = observed("frfcfs")
        collector.t_interference[1] += 1
        checks = reconcile(collector, strict=False)
        assert checks["row_sums_match_victim_totals"] != "ok"
        assert checks["diagonal_zero"] == "ok"

    def test_forged_interval_breaks_rebuild(self):
        from repro.obs.spans import WaitInterval

        collector, _ = observed("frfcfs")
        span = collector.spans[0]
        span.intervals.append(
            WaitInterval(0, 50, (span.thread_id + 1) % 4, "queue")
        )
        checks = reconcile(collector, strict=False)
        assert checks["intervals_rebuild_matrix"] != "ok"


class TestCauseBreakdown:
    def test_causes_cover_other_inflicted_delay(self):
        collector, _ = observed("frfcfs")
        causes = cause_breakdown(collector)
        # queue cause alone reconciles with the grant-rule matrix for
        # completed-and-open spans
        rebuilt = span_matrix(collector)
        for victim in range(4):
            assert causes[victim]["queue"] == sum(rebuilt[victim])
        assert any(c["row"] > 0 or c["bus"] > 0 for c in causes)
