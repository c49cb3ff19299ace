"""Per-table experiment drivers (Tables 1, 2, 4 and 6)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.campaign.engine import run_points
from repro.campaign.plan import CampaignPlan
from repro.config import SimConfig, TCMParams
from repro.core.hardware_cost import StorageCost, storage_cost
from repro.experiments.figures import groups_plan
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.workloads.microbench import RANDOM_ACCESS, STREAMING
from repro.workloads.mixes import workload_from_specs
from repro.workloads.spec import BENCHMARKS, BenchmarkSpec


@dataclass(frozen=True)
class CharacteristicsRow:
    """Target vs measured (MPKI, RBL, BLP) for one benchmark alone."""

    benchmark: str
    target_mpki: float
    measured_mpki: float
    target_rbl: float
    measured_rbl: float
    target_blp: float
    measured_blp: float
    alone_ipc: float


def _measure_alone(
    spec: BenchmarkSpec, config: SimConfig, seed: int
) -> CharacteristicsRow:
    workload = workload_from_specs(f"alone-{spec.name}", (spec,))
    result = System(workload, make_scheduler("frfcfs"), config, seed=seed).run()
    thread = result.threads[0]
    return CharacteristicsRow(
        benchmark=spec.name,
        target_mpki=spec.mpki,
        measured_mpki=thread.mpki,
        target_rbl=spec.rbl,
        measured_rbl=thread.rbl,
        target_blp=spec.blp,
        measured_blp=thread.blp,
        alone_ipc=thread.ipc,
    )


def table1(config: Optional[SimConfig] = None, seed: int = 0) -> List[CharacteristicsRow]:
    """Table 1: the random-access and streaming microbenchmarks alone."""
    config = config or SimConfig()
    return [
        _measure_alone(RANDOM_ACCESS, config, seed),
        _measure_alone(STREAMING, config, seed),
    ]


def table2(num_threads: int = 24, num_banks: int = 4) -> StorageCost:
    """Table 2: per-controller monitoring storage cost in bits."""
    return storage_cost(num_threads=num_threads, num_banks=num_banks)


def table4(
    config: Optional[SimConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[CharacteristicsRow]:
    """Table 4: measured characteristics of every benchmark alone.

    The measured MPKI/RBL/BLP should converge to the paper's values,
    which are the targets of the synthetic trace generators.
    """
    config = config or SimConfig()
    names = benchmarks if benchmarks is not None else sorted(
        BENCHMARKS, key=lambda n: -BENCHMARKS[n].mpki
    )
    return [_measure_alone(BENCHMARKS[name], config, seed) for name in names]


# ----------------------------------------------------------------------
# Table 6: shuffling algorithm comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShufflingRow:
    """Maximum-slowdown statistics of one shuffling algorithm."""

    algorithm: str
    ms_average: float
    ms_variance: float


#: The four shuffling algorithms of Table 6 ('dynamic' is the full TCM
#: policy that switches between insertion and random).
SHUFFLE_ALGORITHMS = ("round_robin", "random", "insertion", "dynamic")


def table6_plan(per_category: int = 8, config: Optional[SimConfig] = None,
                base_seed: int = 0,
                algorithms: Sequence[str] = SHUFFLE_ALGORITHMS,
                ) -> CampaignPlan:
    """Table 6's points: TCM with each shuffling algorithm."""
    return groups_plan("table6", [
        (f"shuffle={algorithm}", ("tcm",),
         {"tcm": TCMParams(shuffle_mode=algorithm)}, (0.5,))
        for algorithm in algorithms
    ], per_category, config, base_seed,
        "Table 6: shuffling-algorithm MS statistics")


def table6(
    per_category: int = 8,
    config: Optional[SimConfig] = None,
    algorithms: Sequence[str] = SHUFFLE_ALGORITHMS,
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> List[ShufflingRow]:
    """Table 6: MS average and variance per shuffling algorithm.

    Evaluated across 50%-intensity workloads (the paper uses 32).
    """
    plan = table6_plan(per_category, config, base_seed, algorithms)
    it = iter(run_points(plan, workers=workers, store=store))
    rows = []
    for algorithm in algorithms:
        slowdowns = [next(it).maximum_slowdown for _ in range(per_category)]
        rows.append(
            ShufflingRow(
                algorithm=algorithm,
                ms_average=float(np.mean(slowdowns)),
                ms_variance=float(np.var(slowdowns, ddof=1)) if len(slowdowns) > 1 else 0.0,
            )
        )
    return rows
