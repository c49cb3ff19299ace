"""Parameter and configuration sweeps (Figure 6, Tables 7 and 8).

Each sweep runs its campaign preset (``figure6_plan``, ...) in one
engine call and averages each swept value's group of results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import PointResult, run_points
from repro.campaign.plan import CampaignPlan, CampaignPoint
from repro.config import (
    ATLASParams,
    PARBSParams,
    STFMParams,
    SimConfig,
    TCMParams,
)
from repro.experiments.figures import group_means, groups_plan
from repro.workloads.mixes import Workload, make_workload_suite
from repro.workloads.spec import BenchmarkSpec


@dataclass(frozen=True)
class SweepPoint:
    """One (scheduler, parameter value) operating point, suite-averaged."""

    scheduler: str
    parameter: str
    value: object
    weighted_speedup: float
    maximum_slowdown: float
    harmonic_speedup: float


def _suite(per_category: int, config: SimConfig,
           base_seed: int) -> List[Workload]:
    return make_workload_suite(
        (0.5,), per_category, num_threads=config.num_threads,
        base_seed=base_seed,
    )


def _sweep_plan(name: str, sweeps: Sequence[tuple], per_category: int,
                config: Optional[SimConfig], base_seed: int,
                description: str) -> CampaignPlan:
    """Each (scheduler, parameter, value, params) sweep over the
    50%-intensity suite, one group after another."""
    return groups_plan(name, [
        (f"{parameter}={value}", (scheduler,), {scheduler: params}, (0.5,))
        for scheduler, parameter, value, params in sweeps
    ], per_category, config, base_seed, description)


def _sweep_means(sweeps: Sequence[tuple], results: Sequence[PointResult],
                 per_category: int) -> List[SweepPoint]:
    """Suite-average each sweep's group of ``per_category`` results."""
    return [
        SweepPoint(scheduler, parameter, value, mean.weighted_speedup,
                   mean.maximum_slowdown, mean.harmonic_speedup)
        for (scheduler, parameter, value, _), (mean,) in zip(
            sweeps, group_means(results, per_category))
    ]


# ----------------------------------------------------------------------
# Figure 6: the performance/fairness trade-off continuum
# ----------------------------------------------------------------------

#: Default parameter ranges swept in Figure 6 (paper §7.1), with each
#: scheduler's params class: TCM's ClusterThresh from 2/24 to 6/24;
#: conservative-to-aggressive ranges for each baseline's salient
#: parameter (FR-FCFS has none).
FIGURE6_RANGES: Dict[str, Tuple[Optional[type], str, Tuple]] = {
    "tcm": (TCMParams, "cluster_thresh",
            (2 / 24, 3 / 24, 4 / 24, 5 / 24, 6 / 24)),
    "atlas": (ATLASParams, "quantum_cycles",
              (25_000, 50_000, 100_000, 200_000, 400_000)),
    "parbs": (PARBSParams, "batch_cap", (1, 3, 5, 8, 10)),
    "stfm": (STFMParams, "fairness_threshold", (1.0, 1.1, 1.5, 2.0, 5.0)),
    "frfcfs": (None, "none", (None,)),
}
FIGURE6_SCHEDULERS = tuple(FIGURE6_RANGES)


def _figure6_sweeps(schedulers: Sequence[str]) -> List[tuple]:
    sweeps = []
    for name in schedulers:
        cls, parameter, values = FIGURE6_RANGES[name]
        sweeps += [(name, parameter, value,
                    cls(**{parameter: value}) if cls else None)
                   for value in values]
    return sweeps


def figure6_plan(per_category: int = 4, config: Optional[SimConfig] = None,
                 base_seed: int = 0,
                 schedulers: Sequence[str] = FIGURE6_SCHEDULERS,
                 ) -> CampaignPlan:
    """Figure 6's points: every value of each scheduler's parameter."""
    return _sweep_plan("fig6", _figure6_sweeps(schedulers), per_category,
                       config, base_seed, "Figure 6: parameter sweeps")


def figure6(
    per_category: int = 4,
    config: Optional[SimConfig] = None,
    schedulers: Sequence[str] = FIGURE6_SCHEDULERS,
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> Dict[str, List[SweepPoint]]:
    """Figure 6: sweep each scheduler's salient parameter.

    TCM should trace a smooth WS/MS trade-off curve; the baselines
    should barely move along their non-favoured axis.
    """
    plan = figure6_plan(per_category, config, base_seed, schedulers)
    results = run_points(plan, workers=workers, store=store)
    curves: Dict[str, List[SweepPoint]] = {name: [] for name in schedulers}
    for point in _sweep_means(_figure6_sweeps(schedulers), results,
                              per_category):
        curves[point.scheduler].append(point)
    return curves


# ----------------------------------------------------------------------
# Table 7: TCM sensitivity to its algorithmic parameters
# ----------------------------------------------------------------------


def _table7_sweeps(algo_thresholds: Sequence[float],
                   shuffle_intervals: Sequence[int]) -> List[tuple]:
    return [
        ("tcm", parameter, value, TCMParams(**{parameter: value}))
        for parameter, values in (("shuffle_algo_thresh", algo_thresholds),
                                  ("shuffle_interval", shuffle_intervals))
        for value in values
    ]


def table7_plan(per_category: int = 4, config: Optional[SimConfig] = None,
                base_seed: int = 0,
                algo_thresholds: Sequence[float] = (0.05, 0.07, 0.10),
                shuffle_intervals: Sequence[int] = (500, 600, 700, 800),
                ) -> CampaignPlan:
    """Table 7's points: TCM at each ShuffleAlgoThresh and interval."""
    return _sweep_plan(
        "table7", _table7_sweeps(algo_thresholds, shuffle_intervals),
        per_category, config, base_seed,
        "Table 7: TCM sensitivity to ShuffleAlgoThresh and ShuffleInterval",
    )


def table7(
    per_category: int = 4,
    config: Optional[SimConfig] = None,
    algo_thresholds: Sequence[float] = (0.05, 0.07, 0.10),
    shuffle_intervals: Sequence[int] = (500, 600, 700, 800),
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> List[SweepPoint]:
    """Table 7: vary ShuffleAlgoThresh and ShuffleInterval."""
    plan = table7_plan(per_category, config, base_seed, algo_thresholds,
                       shuffle_intervals)
    return _sweep_means(
        _table7_sweeps(algo_thresholds, shuffle_intervals),
        run_points(plan, workers=workers, store=store), per_category,
    )


# ----------------------------------------------------------------------
# Table 8: sensitivity to system configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigComparison:
    """TCM-vs-ATLAS deltas under one system configuration."""

    dimension: str
    value: object
    tcm_ws: float
    atlas_ws: float
    tcm_ms: float
    atlas_ms: float

    @property
    def ws_delta(self) -> float:
        """Relative WS change of TCM vs ATLAS (positive = TCM better)."""
        return (self.tcm_ws - self.atlas_ws) / self.atlas_ws

    @property
    def ms_delta(self) -> float:
        """Relative MS change of TCM vs ATLAS (negative = TCM fairer)."""
        return (self.tcm_ms - self.atlas_ms) / self.atlas_ms


def scale_mpki(workload: Workload, factor: float) -> Workload:
    """Model a different cache size by scaling every benchmark's MPKI.

    A larger last-level cache absorbs more misses; the paper's 1MB and
    2MB configurations are modelled as uniform MPKI reductions.
    """
    specs = tuple(
        BenchmarkSpec(
            name=s.name, mpki=max(0.005, s.mpki * factor), rbl=s.rbl, blp=s.blp
        )
        for s in workload.specs
    )
    return Workload(
        name=f"{workload.name}-mpki{factor}",
        benchmark_names=workload.benchmark_names,
        weights=workload.weights,
        custom_specs=specs,
    )


#: Cache sizes of Table 8, as MPKI scaling factors relative to the
#: 512KB-per-core baseline.
CACHE_MPKI_FACTORS: Dict[str, float] = {"512KB": 1.0, "1MB": 0.7, "2MB": 0.5}


def _table8_groups(
    per_category: int, config: SimConfig, base_seed: int,
    controllers: Sequence[int], cores: Sequence[int], caches: Sequence[str],
) -> List[Tuple[str, object, SimConfig, List[Workload]]]:
    """(dimension, value, config, suite) of each Table 8 configuration."""
    groups = []
    for nch in controllers:
        cfg = config.with_(num_channels=nch)
        groups.append(("controllers", nch, cfg,
                       _suite(per_category, cfg, base_seed)))
    for ncores in cores:
        cfg = config.with_(num_threads=ncores)
        groups.append(("cores", ncores, cfg,
                       _suite(per_category, cfg, base_seed)))
    for cache in caches:
        factor = CACHE_MPKI_FACTORS[cache]
        suite = [scale_mpki(w, factor)
                 for w in _suite(per_category, config, base_seed)]
        groups.append(("cache", cache, config, suite))
    return groups


def table8_plan(per_category: int = 2, config: Optional[SimConfig] = None,
                base_seed: int = 0,
                controllers: Sequence[int] = (1, 2, 4, 8),
                cores: Sequence[int] = (4, 8, 16, 24, 32),
                caches: Sequence[str] = ("512KB", "1MB", "2MB"),
                ) -> CampaignPlan:
    """Table 8's points: TCM and ATLAS under each configuration.

    Configurations equal to the baseline system (e.g. 4 controllers, 24
    cores, 512KB) repeat the same points; the engine runs each once.
    """
    groups = _table8_groups(per_category, config or SimConfig(), base_seed,
                            controllers, cores, caches)
    return CampaignPlan("table8", tuple(
        CampaignPoint(workload=workload, scheduler=sched, config=cfg,
                      seed=base_seed + i, tag=f"{dimension}={value}")
        for dimension, value, cfg, suite in groups
        for i, workload in enumerate(suite)
        for sched in ("tcm", "atlas")
    ), "Table 8: TCM vs ATLAS across controllers, cores and cache sizes")


def table8(
    per_category: int = 2,
    config: Optional[SimConfig] = None,
    controllers: Sequence[int] = (1, 2, 4, 8),
    cores: Sequence[int] = (4, 8, 16, 24, 32),
    caches: Sequence[str] = ("512KB", "1MB", "2MB"),
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> List[ConfigComparison]:
    """Table 8: TCM vs ATLAS across system configurations."""
    plan = table8_plan(per_category, config, base_seed, controllers, cores,
                       caches)
    groups = _table8_groups(per_category, config or SimConfig(), base_seed,
                            controllers, cores, caches)
    results = run_points(plan, workers=workers, store=store)
    return [
        ConfigComparison(
            dimension, value,
            tcm_ws=tcm.weighted_speedup, atlas_ws=atlas.weighted_speedup,
            tcm_ms=tcm.maximum_slowdown, atlas_ms=atlas.maximum_slowdown,
        )
        for (dimension, value, _, _), (tcm, atlas) in zip(
            groups, group_means(results, 2 * per_category))
    ]
