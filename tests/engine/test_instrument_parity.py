"""Instrument parity: every observer's output is the same on both loops.

``System.advance`` fires the observer hooks, the tracer's grant events
and the epoch sampler from the fused loop at the dispatch loop's sites
(docs/PERFORMANCE.md, "When each loop runs").  The recorded observer
digests (``tests/goldens/observer_digests.json``) model writes and
prefetching, which only the dispatch loop implements, so they never
reach the fused loop.  This suite runs the same fully observed run —
tracer and sampler, request spans, explain with three shadows, a state
probe stepped through checkpoints and a trace recorder — on a
configuration both loops run, for every registry scheduler, and
requires identical outputs: trace events, span structure, explain
snapshot and decision records, probe checkpoints and rings, and the
recorded miss streams.
"""

from __future__ import annotations

import pytest

import repro.sim.system
from repro.config import SimConfig
from repro.schedulers.registry import SCHEDULERS
from tests.conftest import dispatch_loop
from tests.sim.test_observers import CYCLES, observed_outputs

#: the recorded configuration less writes and prefetching
CONFIG = SimConfig(run_cycles=CYCLES, num_threads=4, quantum_cycles=5_000)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_instruments_match_across_loops(scheduler, monkeypatch):
    with dispatch_loop():
        reference, reference_counts = observed_outputs(scheduler, CONFIG)

    fused_calls = []
    advance_fused = repro.sim.system.advance_fused

    def counted(system, limit):
        fused_calls.append(limit)
        advance_fused(system, limit)

    monkeypatch.setattr(repro.sim.system, "advance_fused", counted)
    fused, fused_counts = observed_outputs(scheduler, CONFIG)
    assert fused_calls, "the observed run never took the fused loop"

    assert fused_counts == reference_counts
    assert reference_counts["decisions"] > 0
    for instrument in reference:
        assert fused[instrument] == reference[instrument], (
            f"{scheduler}: {instrument} differs between the loops"
        )
