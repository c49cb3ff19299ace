"""Property-based loop parity: random configurations, identical results.

The example-based matrix (``test_backend_parity``) pins the golden
axes; this module turns hypothesis loose on the configuration space —
geometry, window size, page policy, detailed timings, writes,
prefetchers, phases, seeds — and requires a run left to
``System.advance``'s choice of loop to equal the same run forced onto
the dispatch loop (``tests.conftest.dispatch_loop``), bit for bit, on
every drawn point.  Points with detailed timings take the dispatch loop
either way; the rest, writes and prefetchers included, pit the fused
loop against it.
The test names call the two loops backends: ``fast`` is the fused
loop, ``reference`` the dispatch loop.
The shared ``sim_configs`` strategy
(``tests/conftest.py``) is ordered simplest-first, so a parity break
shrinks to the smallest system that still exhibits it, which is
usually a one-line repro.

The suite runs under the pinned, derandomised "repro" hypothesis
profile: the drawn examples are identical on every machine and CI run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.fused import fusable
from repro.sim.system import System
from repro.workloads.mixes import make_intensity_workload
from tests.conftest import dispatch_loop, sim_configs

pytestmark = pytest.mark.property


def _run(config, scheduler, intensity, mix_seed, dispatch):
    workload = make_intensity_workload(
        intensity, num_threads=config.num_threads, seed=mix_seed
    )
    system = System(
        workload,
        make_scheduler(scheduler),
        config,
        seed=config.seed,
    )
    if dispatch:
        with dispatch_loop():
            return system, system.run()
    return system, system.run()


@given(
    config=sim_configs(),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    intensity=st.sampled_from([0.0, 0.5, 1.0]),
    mix_seed=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_backends_bit_identical(config, scheduler, intensity, mix_seed):
    """For any drawn configuration, fused (fast) == dispatch (reference)
    exactly."""
    dispatch_sys, dispatch = _run(config, scheduler, intensity, mix_seed,
                                  dispatch=True)
    fused_sys, fused = _run(config, scheduler, intensity, mix_seed,
                            dispatch=False)
    assert dispatch == fused
    assert dispatch_sys._seq == fused_sys._seq
    assert dispatch_sys.sched_decisions == fused_sys.sched_decisions
    assert fusable(fused_sys) is not config.timings.detailed


@given(config=sim_configs(max_run_cycles=4_000))
@settings(max_examples=20, deadline=None)
def test_fast_backend_idempotent(config):
    """Two fused-loop runs of one configuration are identical (the
    engine holds no state that leaks across ``System`` instances —
    buffered RNG blocks are per-stream)."""
    _, first = _run(config, "tcm", 0.75, 3, dispatch=False)
    _, second = _run(config, "tcm", 0.75, 3, dispatch=False)
    assert first == second

