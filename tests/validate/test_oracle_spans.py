"""Span-legality checks in the invariant oracle.

Green half: a span-collecting run passes the legality checks for
representative schedulers and simulator modes, via ``checked_run``'s
``spans`` flag.  Red half: a corrupted span (broken tiling, forged
culprit) is caught when ``finish`` replays the oracle's service log.
"""

import pytest

from repro.config import DramTimings, SimConfig
from repro.obs.spans import CAUSE_QUEUE, WaitInterval, attach_spans
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.validate import InvariantViolation, attach_oracle, checked_run
from repro.workloads import make_intensity_workload

pytestmark = pytest.mark.validate

CFG = SimConfig(run_cycles=40_000, num_threads=8)
MIX = make_intensity_workload(0.8, num_threads=8, seed=7)


def spanned_system(scheduler="frfcfs", cfg=CFG):
    system = System(MIX, make_scheduler(scheduler), cfg, seed=11)
    collector = attach_spans(system)
    return system, collector


class TestGreen:
    @pytest.mark.parametrize("name", ["frfcfs", "stfm", "tcm", "fcfs"])
    def test_schedulers_pass_span_checks(self, name):
        _, report = checked_run(MIX, name, CFG, seed=11, spans=True)
        assert report.ok, report.violations[:3]
        assert report.checks.get("spans", 0) > 0

    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(run_cycles=30_000, num_threads=8, model_writes=True),
            SimConfig(run_cycles=30_000, num_threads=8,
                      timings=DramTimings(detailed=True)),
            SimConfig(run_cycles=30_000, num_threads=8,
                      timings=DramTimings(page_policy="closed")),
            SimConfig(run_cycles=30_000, num_threads=8, prefetch_degree=2),
            SimConfig(run_cycles=30_000, num_threads=8, model_writes=True,
                      prefetch_degree=2),
        ],
        ids=["writes", "detailed", "closed_page", "prefetch",
             "writes_prefetch"],
    )
    def test_simulator_modes(self, cfg):
        _, report = checked_run(MIX, "tcm", cfg, seed=3, spans=True)
        assert report.ok, report.violations[:3]
        assert report.checks.get("spans", 0) > 0

    def test_spanless_run_skips_quietly(self):
        """Without a collector the span category never fires."""
        _, report = checked_run(MIX, "frfcfs", CFG, seed=11)
        assert report.ok
        assert report.checks.get("spans", 0) == 0


class TestRed:
    """Corrupt one collected span; finish() must catch it."""

    def run_and_corrupt(self, corrupt):
        system, collector = spanned_system()
        oracle = attach_oracle(system)
        result = system.run()
        victim = next(s for s in collector.spans if len(s.intervals) > 1)
        corrupt(victim)
        with pytest.raises(InvariantViolation, match=r"\[spans\]"):
            oracle.finish(result)

    def test_tiling_gap_caught(self):
        self.run_and_corrupt(lambda span: span.intervals.pop(0))

    def test_overlap_caught(self):
        def overlap(span):
            first = span.intervals[0]
            span.intervals[0] = first._replace(end=first.end + 1)

        self.run_and_corrupt(overlap)

    def test_forged_culprit_caught(self):
        system, collector = spanned_system()
        oracle = attach_oracle(system)
        result = system.run()
        # find a span with an other-thread queue wait and reassign blame
        for span in collector.spans:
            for i, interval in enumerate(span.intervals):
                if (interval.cause == CAUSE_QUEUE
                        and interval.culprit != span.thread_id
                        and not interval.partial):
                    wrong = (interval.culprit + 1) % 8
                    if wrong == span.thread_id:
                        wrong = (wrong + 1) % 8
                    span.intervals[i] = interval._replace(culprit=wrong)
                    with pytest.raises(InvariantViolation,
                                       match="blames"):
                        oracle.finish(result)
                    return
        pytest.fail("no other-thread queue interval found to corrupt")

    def test_forged_service_start_caught(self):
        system, collector = spanned_system()
        oracle = attach_oracle(system)
        result = system.run()
        victim = collector.spans[0]
        victim.start_service += 1
        with pytest.raises(InvariantViolation, match="claims service"):
            oracle.finish(result)

    def test_fabricated_interval_caught(self):
        def fabricate(span):
            last = span.intervals[-1]
            span.intervals.append(WaitInterval(
                last.end, last.end + 5, span.thread_id, "service",
            ))
            span.completion += 5

        self.run_and_corrupt(fabricate)
