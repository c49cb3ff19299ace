"""The fused loop's cost per simulated request, held as a count.

On a shared host, a timing cannot tell one more Python frame per
request from noise; a count of frames can.
:func:`repro.prof.py_calls_per_request` counts the frames
``System.advance`` enters per granted request with ``sys.setprofile``,
which depends on the code path alone.  The point is the
``engine_speed[tcm]`` bench's (``benchmarks/bench_engine_speed.py``):
TCM, 24 threads, the 0.75 mix, 60k cycles, seed 0.

The ceiling is the measured count rounded up: 7.593 on CPython 3.11.
A frame added to the path of one request in a hundred crosses it.
Lower the ceiling with the count.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.prof import py_calls_per_request
from repro.schedulers.registry import make_scheduler
from repro.sim.system import System
from repro.workloads.mixes import make_intensity_workload

CYCLES = 60_000
CEILING = 7.6


def test_tcm_point_stays_within_its_call_budget():
    system = System(
        make_intensity_workload(0.75, num_threads=24, seed=0),
        make_scheduler("tcm"), SimConfig(run_cycles=CYCLES), seed=0,
    )
    system.start_run()
    calls = py_calls_per_request(system, CYCLES)
    assert calls <= CEILING, (
        f"{calls:.3f} Python frames per request, ceiling {CEILING}"
    )
