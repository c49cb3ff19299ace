"""Instrument parity: every observer's output is the same on both loops.

``System.advance`` fires the observer hooks, the tracer's grant and
write-drain events and the epoch sampler from the fused loop at the
dispatch loop's sites (docs/PERFORMANCE.md, "When each loop runs").
This suite runs the fully observed run of the recorded observer digests
(``tests/goldens/observer_digests.json``, writes and prefetching on) —
tracer and sampler, request spans, explain with three shadows, a state
probe stepped through checkpoints and a trace recorder — on both loops,
for every registry scheduler, and requires identical outputs: trace
events, span structure, explain snapshot and decision records, probe
checkpoints and rings, and the recorded miss streams.
"""

from __future__ import annotations

import pytest

from repro.schedulers.registry import SCHEDULERS
from tests.conftest import dispatch_loop
from tests.sim.test_observers import RECORDED_CONFIG, observed_outputs


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_instruments_match_across_loops(scheduler, fused_advances):
    with dispatch_loop():
        reference, reference_counts = observed_outputs(scheduler,
                                                       RECORDED_CONFIG)
    assert not fused_advances

    fused, fused_counts = observed_outputs(scheduler, RECORDED_CONFIG)
    assert fused_advances, "the observed run never took the fused loop"

    assert fused_counts == reference_counts
    assert reference_counts["decisions"] > 0
    # the write drain and prefetch fills were exercised
    assert any(event.get("write") for event in reference["trace"])
    assert any(span[8] for span in reference["spans"]["spans"])
    for instrument in reference:
        assert fused[instrument] == reference[instrument], (
            f"{scheduler}: {instrument} differs between the loops"
        )
