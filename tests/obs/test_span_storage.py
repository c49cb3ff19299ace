"""How the span collector stores what it records.

**Recorded spans.**  ``tests/goldens/span_digests.json`` pins every
span, in the id-free structure of ``tests/sim/test_observers.py``, for
TCM and FR-FCFS under the two DRAM settings the observer digests leave
out: detailed timings (whose refresh-shifted row hits and
tRRD/tFAW-delayed activates take their own service-interval branches)
and closed pages.  Re-record (only when a span change is intended)
with::

    PYTHONPATH=src python -m tests.obs.test_span_storage

**Storage.**  A collector keeps ints: a grant log per bank and one
row per completed request.  Spans are built only when read, so what a
run holds does not grow with the requests it completes.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from pathlib import Path

import pytest

from repro.config import DramTimings, SimConfig
from repro.obs.spans import RequestSpan, SpanCollector, attach_spans
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.workloads import make_intensity_workload
from tests.sim.test_observers import (
    RECORDED_CONFIG, _digest, _span_structure,
)

FIXTURE = Path(__file__).resolve().parents[1] / "goldens" / \
    "span_digests.json"

#: the recorded runs: the observer digests' config (writes and
#: prefetching, 60k cycles, 4 threads) under each DRAM setting
SPAN_CONFIGS = {
    "detailed": dataclasses.replace(
        RECORDED_CONFIG, timings=DramTimings(detailed=True)),
    "closed_page": dataclasses.replace(
        RECORDED_CONFIG, timings=DramTimings(page_policy="closed")),
}
SCHEDULERS = ("frfcfs", "tcm")
POINTS = [(s, mode) for s in SCHEDULERS for mode in SPAN_CONFIGS]


def spanned_run(scheduler: str, config: SimConfig) -> SpanCollector:
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    system = System(workload, make_scheduler(scheduler), config, seed=5)
    collector = attach_spans(system)
    system.run()
    return collector


def span_digest(scheduler: str, mode: str) -> dict:
    collector = spanned_run(scheduler, SPAN_CONFIGS[mode])
    return {"spans": _digest(_span_structure(collector)),
            "count": len(collector.all_spans())}


@pytest.mark.parametrize("scheduler,mode", POINTS)
def test_spans_match_the_recording(scheduler, mode):
    expected = json.loads(FIXTURE.read_text())[f"{scheduler}/{mode}"]
    assert span_digest(scheduler, mode) == expected


def _live_spans() -> int:
    gc.collect()
    return sum(isinstance(obj, RequestSpan) for obj in gc.get_objects())


def _reachable_tracked(root) -> int:
    """GC-tracked objects reachable from ``root``, ``root`` included."""
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if gc.is_tracked(obj):
            count += 1
        for child in gc.get_referents(obj):
            if id(child) not in seen and not isinstance(child, type):
                seen.add(id(child))
                stack.append(child)
    return count


class TestStorage:
    MIX = make_intensity_workload(0.75, num_threads=4, seed=3)

    def tracked_after(self, cycles: int):
        config = SimConfig(run_cycles=cycles, num_threads=4)
        system = System(self.MIX, make_scheduler("tcm"), config, seed=5)
        collector = attach_spans(system)
        system.run()
        del system
        gc.collect()
        return collector, _reachable_tracked(collector)

    def test_held_objects_do_not_grow_with_completed_requests(self):
        spans_before = _live_spans()
        short, short_count = self.tracked_after(30_000)
        long, long_count = self.tracked_after(120_000)
        assert long.requests_completed > 3 * short.requests_completed
        assert long_count == short_count
        # nothing was read, so no span was ever built
        assert _live_spans() == spans_before

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize(
        "config", [RECORDED_CONFIG, *SPAN_CONFIGS.values()],
        ids=["writes_prefetch", *SPAN_CONFIGS])
    def test_streamed_spans_equal_all_spans(self, scheduler, config):
        collector = spanned_run(scheduler, config)
        streamed = [_span_fields(s) for s in collector.iter_spans()]
        assert streamed == [_span_fields(s) for s in collector.all_spans()]
        completed = [_span_fields(s)
                     for s in collector.iter_spans(include_open=False)]
        assert completed == [_span_fields(s) for s in collector.spans]
        assert len(completed) == collector.requests_completed

    def test_built_spans_are_the_record(self):
        collector = spanned_run("tcm", SPAN_CONFIGS["closed_page"])
        first = collector.spans[0]
        assert collector.spans[0] is first
        assert collector.all_spans()[0] is first
        assert next(collector.iter_spans()) is first


def _span_fields(span: RequestSpan) -> list:
    return [span.request_id, span.thread_id, span.channel_id, span.bank_id,
            span.row, span.arrival, span.start_service, span.completion,
            span.kind, span.is_prefetch,
            [tuple(i) for i in span.intervals]]


def record() -> None:
    FIXTURE.write_text(json.dumps(
        {f"{s}/{mode}": span_digest(s, mode) for s, mode in POINTS},
        indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
