"""When ``System.advance`` may take the fused loop (``fusable``).

The fused loop inlines the CPU model, address stream, stream
prefetcher, DRAM timing and monitor, so anything that could replace one
of those calls must route the run through the dispatch loop instead:
detailed DRAM timings (the one feature the fused loop does not
implement), a component subclass, or a per-instance method wrapper.
Write modelling, prefetching, tracers, samplers and observers run on
the fused loop.
"""

import pytest

from repro.config import DramTimings, SimConfig
from repro.cpu.prefetch import StreamPrefetcher
from repro.dram.bank import Bank
from repro.schedulers.registry import make_scheduler
from repro.sim.fused import fusable
from repro.sim.system import System
from repro.telemetry import EpochSampler, MemorySink, Telemetry, Tracer
from repro.workloads import make_intensity_workload
from tests.conftest import dispatch_loop

CYCLES = 8_000
#: writes and prefetching on, as in the e2e benchmark's sim_rw workload
RW = {"model_writes": True, "prefetch_degree": 2}


def _system(telemetry=None, **cfg):
    config = SimConfig(run_cycles=CYCLES, num_threads=4, **cfg)
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    return System(workload, make_scheduler("tcm"), config, seed=5,
                  telemetry=telemetry)


def test_a_plain_run_is_fusable():
    assert fusable(_system())


def test_detailed_timings_need_the_dispatch_loop():
    assert not fusable(_system(timings=DramTimings(detailed=True)))


@pytest.mark.parametrize("cfg", [
    {"model_writes": True},
    {"prefetch_degree": 2},
    RW,
], ids=["writes", "prefetch", "both"])
def test_writes_and_prefetching_run_on_the_fused_loop(cfg):
    system = _system(**cfg)
    assert fusable(system)
    reference = _system(**cfg)
    with dispatch_loop():
        expected = reference.run()
    assert system.run() == expected


@pytest.mark.parametrize("telemetry", [
    lambda: Telemetry(sampler=EpochSampler(2_000)),
    lambda: Telemetry(tracer=Tracer([MemorySink()])),
], ids=["sampler", "tracer"])
def test_telemetry_streams_run_on_the_fused_loop(telemetry):
    bundle = telemetry()
    system = _system(telemetry=bundle)
    assert fusable(system)
    assert system.run() == _system().run()
    # the fused loop emits the grant events and takes the samples
    assert bundle.events or bundle.samples


#: (label, component of a system, one of its methods the fused loop
#: inlines or calls)
SEAMS = [
    ("system", lambda s: s, "_try_schedule"),
    ("scheduler", lambda s: s.scheduler, "on_request_complete"),
    ("monitor", lambda s: s.monitor, "on_request_arrival"),
    ("thread", lambda s: s.threads[0], "issue_gap"),
    ("address stream", lambda s: s.threads[1]._addr, "next_location"),
    ("thread stats", lambda s: s.threads[2].stats, "retire"),
    ("prefetcher", lambda s: s.prefetchers[3], "observe"),
    ("channel", lambda s: s.channels[0], "start_service"),
    ("write drain", lambda s: s.channels[1], "start_write_service"),
    ("bank", lambda s: s.channels[1].banks[2], "begin_access"),
]


@pytest.mark.parametrize("label, component, method", SEAMS,
                         ids=[seam[0] for seam in SEAMS])
def test_a_per_instance_wrapper_intercepts(label, component, method):
    """A wrapper on any seam keeps the run on the dispatch loop, so it
    sees its calls, and the run still equals the plain one (writes and
    prefetching on, so that every seam is reached)."""
    system = _system(**RW)
    target = component(system)
    original = getattr(target, method)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(target, method, wrapper)
    assert not fusable(system)
    assert system.run() == _system(**RW).run()
    assert calls, f"{label}.{method} was never called"


def test_a_component_subclass_needs_the_dispatch_loop():
    class CountingBank(Bank):
        accesses = 0

        def begin_access(self, *args, **kwargs):
            CountingBank.accesses += 1
            return super().begin_access(*args, **kwargs)

    system = _system()
    old = system.channels[1].banks[0]
    system.channels[1].banks[0] = CountingBank(
        old.channel_id, old.bank_id, old.timings
    )
    assert not fusable(system)
    assert system.run() == _system().run()
    assert CountingBank.accesses > 0


def test_a_prefetcher_subclass_needs_the_dispatch_loop():
    class CountingPrefetcher(StreamPrefetcher):
        observed = 0

        def observe(self, location):
            CountingPrefetcher.observed += 1
            return super().observe(location)

    system = _system(**RW)
    system.prefetchers[0] = CountingPrefetcher(system.config.prefetch_degree)
    assert not fusable(system)
    assert system.run() == _system(**RW).run()
    assert CountingPrefetcher.observed > 0
