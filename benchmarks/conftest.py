"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows/series.  Scale knobs (environment
variables) let the same harness run anywhere from a quick smoke pass to
the paper's full 96-workload suite:

* ``REPRO_BENCH_WORKLOADS`` — workloads per intensity category
  (default 2; the paper uses 32).
* ``REPRO_BENCH_CYCLES``    — simulated cycles per run (default
  300_000; the paper runs 100M on its native-speed simulator).
* ``REPRO_BENCH_SEED``      — base seed for workload construction.

The knobs are read **lazily, inside the fixtures** — not at import
time — so a test or CLI that sets ``REPRO_BENCH_*`` after this module
is imported (pytest imports every conftest up front) still takes
effect.  ``tests/prof/test_bench_knobs.py`` guards that property.

Perf-history recording (``repro.prof.history``): engine-speed and
overhead benches call :func:`record_history` with their measured
rounds.  Recording is opt-in via ``REPRO_BENCH_RECORD=1`` so a casual
local ``pytest benchmarks/`` never mutates the committed
``BENCH_history.json``; ``REPRO_BENCH_HISTORY`` points the append at a
different file (CI appends to a job artifact and compares against the
committed history with ``prof compare``).

Speed guards assert only under ``REPRO_BENCH_STRICT=1`` on the machine
that recorded their baseline, and all of them share one budget,
:data:`STRICT_TOLERANCE`.  Attached-vs-off ratios time their two kinds
of run in alternating rounds (:func:`alternating_rounds`).
"""

import gc
import os
import time
import tracemalloc
from pathlib import Path

import pytest

from repro import SimConfig

#: repo root (benchmarks/ lives directly under it)
REPO_ROOT = Path(__file__).resolve().parent.parent

#: wall-clock budget (fresh / baseline) of every strict speed guard.
#: Same-build runs on one machine spread 5-15%, so a tighter budget
#: fires on noise rather than on a regression.
STRICT_TOLERANCE = 1.15


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def bench_workloads() -> int:
    """Workloads per intensity category (read at call time)."""
    return _env_int("REPRO_BENCH_WORKLOADS", 2)


def bench_cycles() -> int:
    """Simulated cycles per run (read at call time)."""
    return _env_int("REPRO_BENCH_CYCLES", 300_000)


def bench_seed() -> int:
    """Base seed for workload construction (read at call time)."""
    return _env_int("REPRO_BENCH_SEED", 0)


@pytest.fixture
def bench_config() -> SimConfig:
    """The scaled Table 3 system configuration used by every bench."""
    return SimConfig(run_cycles=bench_cycles())


@pytest.fixture
def per_category() -> int:
    return bench_workloads()


@pytest.fixture
def base_seed() -> int:
    return bench_seed()


def emit(capsys, text: str) -> None:
    """Print a regenerated table/series to the real terminal."""
    with capsys.disabled():
        print()
        print(text)


def record_history(bench: str, family: str, rounds_s, **metrics) -> None:
    """Append one perf record when recording is enabled (else no-op).

    ``extra`` may be passed through ``metrics``; everything lands in a
    ``repro.prof.history`` v1 record at ``REPRO_BENCH_HISTORY``
    (default: the repo-root ``BENCH_history.json``).
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    from repro.prof import history

    path = os.environ.get(
        "REPRO_BENCH_HISTORY", str(REPO_ROOT / history.DEFAULT_HISTORY)
    )
    extra = metrics.pop("extra", None)
    history.append(
        path,
        history.make_record(bench, family, list(rounds_s), extra=extra,
                            **metrics),
    )


def alternating_rounds(off, on, rounds: int):
    """Time an off run then an on run, ``rounds`` times over.

    ``off`` and ``on`` are called untimed and return the zero-argument
    callable that is timed, so a bench chooses whether building the
    system counts.  Returns ``(off_timings, on_timings)``.  A shared
    host's speed drifts within seconds; alternating the two kinds of
    run lands that drift on both sides of an attached-vs-off ratio
    instead of between two blocks of runs.
    """
    off_timings, on_timings = [], []
    for _ in range(rounds):
        for prepare, timings in ((off, off_timings), (on, on_timings)):
            run = prepare()
            t0 = time.perf_counter()
            run()
            timings.append(time.perf_counter() - t0)
    return off_timings, on_timings


def held_bytes(build) -> int:
    """Bytes tracemalloc sees still allocated after running the system
    ``build()`` returns, the system itself freed: what its observers
    keep."""
    system = build()
    gc.collect()
    tracemalloc.start()
    try:
        system.run()
        del system
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
