"""The fused loop's cost per simulated request, held as a count.

On a shared host, a timing cannot tell one more Python frame per
request from noise; a count of frames can.
:func:`repro.prof.py_calls_per_request` counts the frames
``System.advance`` enters per granted request with ``sys.setprofile``,
which depends on the code path alone.  The point is the
``engine_speed[tcm]`` bench's (``benchmarks/bench_engine_speed.py``):
TCM, 24 threads, the 0.75 mix, 60k cycles, seed 0.

Each ceiling is a measured count rounded up, on CPython 3.11:

* plain: 7.011;
* explain attached with one FR-FCFS shadow: 12.349;
* fully observed — ``Telemetry.observing()`` (tracer, sampler, spans),
  the same explain and a ``StateProbe``, the e2e ``observed`` set:
  20.497.

A frame added to the path of one request in a hundred crosses the
watched ceilings.  Lower a ceiling with its count.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.diverge import StateProbe
from repro.explain import attach_explain
from repro.prof import py_calls_per_request
from repro.schedulers.registry import make_scheduler
from repro.sim.system import System
from repro.telemetry import Telemetry
from repro.workloads.mixes import make_intensity_workload

CYCLES = 60_000
CEILING = 7.1
#: explain with one FR-FCFS shadow
EXPLAIN_CEILING = 12.4
#: telemetry, spans, explain and a state probe
OBSERVED_CEILING = 20.6


def _system(watch: str) -> System:
    system = System(
        make_intensity_workload(0.75, num_threads=24, seed=0),
        make_scheduler("tcm"), SimConfig(run_cycles=CYCLES), seed=0,
        telemetry=Telemetry.observing() if watch == "observed" else None,
    )
    if watch != "plain":
        attach_explain(system, shadows=("frfcfs",))
    if watch == "observed":
        StateProbe().attach(system)
    system.start_run()
    return system


def test_tcm_point_stays_within_its_call_budget():
    calls = py_calls_per_request(_system("plain"), CYCLES)
    assert calls <= CEILING, (
        f"{calls:.3f} Python frames per request, ceiling {CEILING}"
    )


@pytest.mark.parametrize("watch, ceiling", [
    ("explain", EXPLAIN_CEILING),
    ("observed", OBSERVED_CEILING),
])
def test_watched_tcm_point_stays_within_its_call_budget(watch, ceiling):
    calls = py_calls_per_request(_system(watch), CYCLES)
    assert calls <= ceiling, (
        f"{watch}: {calls:.3f} Python frames per request, ceiling {ceiling}"
    )
