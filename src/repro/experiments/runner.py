"""Run workloads under schedulers and score them against alone runs.

The paper's metrics (weighted speedup, maximum slowdown, harmonic
speedup) compare each thread's shared-system IPC against its IPC when
running **alone** on the same memory system.  Alone runs depend only on
the benchmark and the system configuration — not on the scheduler or
the co-runners — so they are memoised in a process-local dict
(``_ALONE_CACHE``).  The campaign engine persists alone IPCs in its
store and seeds worker processes' caches with
:func:`prime_alone_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.metrics import harmonic_speedup, maximum_slowdown, weighted_speedup
from repro.schedulers import make_scheduler
from repro.sim import RunResult, System
from repro.workloads.mixes import Workload, workload_from_specs
from repro.workloads.spec import BenchmarkSpec

#: process-local alone-run IPCs, keyed by :func:`_alone_key`
_ALONE_CACHE: Dict[Tuple, float] = {}


@dataclass(frozen=True)
class SchedulerScore:
    """One scheduler's metrics on one workload."""

    scheduler: str
    workload: str
    weighted_speedup: float
    maximum_slowdown: float
    harmonic_speedup: float
    result: RunResult


def _alone_key(spec: BenchmarkSpec, config: SimConfig, seed: int) -> Tuple:
    """Cache key: *every* config field, via :meth:`SimConfig.cache_key`.

    ``num_threads`` and ``config.seed`` are normalised away because an
    alone run simulates exactly one thread (``System`` sizes itself off
    the workload) with an explicitly passed seed — so e.g. a core-count
    sweep shares one alone run per benchmark.  All other fields —
    including any added later — are covered automatically by the
    dataclass-derived key, so a new config field can never silently
    alias cache entries.
    """
    return (
        spec.name,
        spec.mpki,
        spec.rbl,
        spec.blp,
        config.with_(num_threads=1, seed=0).cache_key(),
        seed,
    )


def prime_alone_cache(
    spec: BenchmarkSpec, config: SimConfig, seed: int, ipc: float
) -> None:
    """Insert a known alone-run IPC into the process-local cache.

    Campaign workers use this to seed their cache from store-backed
    hints so they never recompute an alone run another process already
    did.
    """
    _ALONE_CACHE[_alone_key(spec, config, seed)] = ipc


def clear_alone_cache() -> None:
    """Drop memoised alone-run IPCs (mainly for tests and benchmarks)."""
    _ALONE_CACHE.clear()


def alone_ipc(
    spec: BenchmarkSpec, config: Optional[SimConfig] = None, seed: int = 0
) -> float:
    """IPC of ``spec`` running alone on the configured memory system.

    The scheduling algorithm is irrelevant with a single thread;
    FR-FCFS is used (it is what an uncontended controller does).
    Memoised per process.
    """
    config = config or SimConfig()
    key = _alone_key(spec, config, seed)
    if key in _ALONE_CACHE:
        return _ALONE_CACHE[key]
    workload = workload_from_specs(f"alone-{spec.name}", (spec,))
    system = System(workload, make_scheduler("frfcfs"), config, seed=seed)
    ipc = system.run().threads[0].ipc
    _ALONE_CACHE[key] = ipc
    return ipc


def alone_ipcs(
    workload: Workload, config: Optional[SimConfig] = None, seed: int = 0
) -> List[float]:
    """Alone IPC of every thread in the workload (memoised per spec)."""
    config = config or SimConfig()
    return [alone_ipc(spec, config, seed) for spec in workload.specs]


def run_shared(
    workload: Workload,
    scheduler_name: str,
    config: Optional[SimConfig] = None,
    params: Optional[object] = None,
    seed: int = 0,
    telemetry=None,
) -> RunResult:
    """Run ``workload`` under one scheduler and return the raw result.

    ``telemetry`` is an optional :class:`repro.telemetry.Telemetry`
    bundle; tracing and sampling never change the simulated outcome,
    only observe it.
    """
    config = config or SimConfig()
    scheduler = make_scheduler(scheduler_name, params)
    return System(
        workload, scheduler, config, seed=seed, telemetry=telemetry
    ).run()


def score_run(
    result: RunResult,
    workload: Workload,
    config: Optional[SimConfig] = None,
    seed: int = 0,
) -> SchedulerScore:
    """Score a shared run against memoised alone runs."""
    config = config or SimConfig()
    alones = alone_ipcs(workload, config, seed)
    shared = result.ipcs
    return SchedulerScore(
        scheduler=result.scheduler,
        workload=workload.name,
        weighted_speedup=weighted_speedup(alones, shared),
        maximum_slowdown=maximum_slowdown(alones, shared),
        harmonic_speedup=harmonic_speedup(alones, shared),
        result=result,
    )


def evaluate_workload(
    workload: Workload,
    scheduler_names: Sequence[str] = ("frfcfs", "stfm", "parbs", "atlas", "tcm"),
    config: Optional[SimConfig] = None,
    params: Optional[Dict[str, object]] = None,
    seed: int = 0,
) -> Dict[str, SchedulerScore]:
    """Run one workload under several schedulers and score each."""
    config = config or SimConfig()
    params = params or {}
    scores = {}
    for name in scheduler_names:
        result = run_shared(workload, name, config, params.get(name), seed)
        scores[name] = score_run(result, workload, config, seed)
    return scores
