"""Shared test fixtures: state hygiene and hypothesis profiles.

The simulator keeps a small amount of process-global state — the
scheduler registry (``repro.schedulers.registry.SCHEDULERS``).  Tests
that mutate it (registering a toy scheduler) must not leak into later
tests, so it is snapshotted and restored around every test
automatically.

The alone-run cache is deliberately not cleared per test: it is keyed
by the full config (benchmark spec, SimConfig fields, seed), so
entries can never alias, and sharing it keeps the suite fast.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import repro.sim.system
from repro.config import DramTimings, SimConfig
from repro.schedulers import registry

# Pinned, derandomised hypothesis profile: identical example sequences
# on every run and machine, so property tests can never flake in CI.
settings.register_profile(
    "repro",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# shared hypothesis strategies
# ----------------------------------------------------------------------

#: Values are ordered simplest-first, so hypothesis shrinks a failing
#: configuration towards the smallest system that still reproduces it
#: (1 channel x 1 bank, tiny window, stationary phases, open pages,
#: no writes, no prefetch).
_dram_timings = st.builds(
    DramTimings,
    page_policy=st.sampled_from(["open", "closed"]),
    detailed=st.booleans(),
)


def sim_configs(max_run_cycles: int = 8_000) -> st.SearchStrategy:
    """Shrink-friendly :class:`repro.config.SimConfig` strategy.

    Covers the geometry, CPU-model and feature axes that steer the
    simulator down different code paths — including the ones that
    decide between ``System``'s fused and dispatch loops (``detailed``
    timings, prefetchers, write modelling).  Run lengths
    are kept small: property tests trade cycles per example for
    examples.  ``num_threads`` is deliberately tiny — thread count is
    the workload's axis, and interleaving bugs need only two actors.
    """
    return st.builds(
        SimConfig,
        num_threads=st.integers(min_value=1, max_value=4),
        num_channels=st.sampled_from([1, 2, 4]),
        banks_per_channel=st.sampled_from([1, 2, 4]),
        num_rows=st.sampled_from([16, 64, 1024]),
        window_size=st.sampled_from([2, 8, 32]),
        ipc_peak=st.sampled_from([1.0, 3.0]),
        quantum_cycles=st.sampled_from([1_000, 2_500]),
        run_cycles=st.integers(min_value=500, max_value=max_run_cycles),
        phase_mean_cycles=st.sampled_from([0, 1_500]),
        model_writes=st.booleans(),
        prefetch_degree=st.sampled_from([0, 2]),
        timings=_dram_timings,
        seed=st.integers(min_value=0, max_value=2**16),
    )


# ----------------------------------------------------------------------
# the parity suites' reference loop
# ----------------------------------------------------------------------

@contextmanager
def dispatch_loop():
    """Run every ``System.advance`` inside the block on the dispatch
    loop, whatever is attached: ``fusable`` is patched to refuse the
    fused loop.  Observers, tracers and samplers run on either loop, so
    this is how a parity test gets its reference side."""
    fusable = repro.sim.system.fusable
    repro.sim.system.fusable = lambda system: False
    try:
        yield
    finally:
        repro.sim.system.fusable = fusable


@pytest.fixture(scope="session")
def tcm_profile():
    """``(RunResult, ProfileReport)`` of one profiled ``SimConfig()`` TCM
    run of the 24-thread 0.75 mix, seed 0.  Its CPU time (about 0.8 s)
    gives the sampler some 200 samples, so a component holding a tenth
    of the run or more is missing from it with negligible probability.
    """
    from repro.prof import profile_run
    from repro.workloads import make_intensity_workload

    return profile_run(make_intensity_workload(0.75, num_threads=24, seed=0),
                       "tcm", SimConfig(), seed=0)


@pytest.fixture(scope="session")
def golden_pass():
    """``(matrix, recordings)`` of one run of every golden point
    (:func:`repro.validate.compute_golden_matrix`): the goldens' tests
    read it, so the suite runs each golden point once, not once per
    golden file."""
    from repro.validate import compute_golden_matrix

    return compute_golden_matrix()


@pytest.fixture
def fused_advances(monkeypatch):
    """The limit of every ``System.advance`` call in the test that took
    the fused loop, in call order."""
    limits = []
    advance_fused = repro.sim.system.advance_fused

    def counted(system, limit):
        limits.append(limit)
        advance_fused(system, limit)

    monkeypatch.setattr(repro.sim.system, "advance_fused", counted)
    return limits


@pytest.fixture(autouse=True)
def _registry_guard():
    """Snapshot and restore the scheduler registry around every test."""
    snapshot = dict(registry.SCHEDULERS)
    yield
    registry.SCHEDULERS.clear()
    registry.SCHEDULERS.update(snapshot)
