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

Perf-history recording (``repro.prof.history``): the engine-speed and
observer-overhead benches call :func:`record_history` with their
measured rounds.  Recording is opt-in via ``REPRO_BENCH_RECORD=1`` so a
casual local ``pytest benchmarks/`` never mutates the committed
``BENCH_history.json``; ``REPRO_BENCH_HISTORY`` points the append at a
different file (CI appends to a job artifact and compares against the
committed history with ``prof compare``).

Speed bounds assert only under ``REPRO_BENCH_STRICT=1``: the plain
run's against its committed ``engine_speed[tcm]`` record, on the
machine that recorded it (``bench_engine_speed.py``), and explain's
attached-vs-off ratio on any host (``bench_observer_overhead.py``).
"""

import os
from pathlib import Path

import pytest

from repro import SimConfig

#: repo root (benchmarks/ lives directly under it)
REPO_ROOT = Path(__file__).resolve().parent.parent


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
