"""Per-figure experiment drivers.

Each ``figureN`` function regenerates the data behind the paper's
figure N, at a configurable scale (number of workloads per intensity
category, run length).  A suite figure runs its campaign preset,
``figureN_plan``, in one engine call and reduces the results in point
order.  Figure 3 is purely algorithmic (shuffle permutation
patterns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import PointResult, run_points
from repro.campaign.plan import CampaignPlan, CampaignPoint, suite_plan
from repro.config import SimConfig
from repro.core.shuffle import InsertionShuffler, RoundRobinShuffler
from repro.experiments.runner import SchedulerScore, alone_ipcs
from repro.schedulers.static import StaticPriorityScheduler
from repro.sim import System
from repro.workloads.microbench import RANDOM_ACCESS, STREAMING
from repro.workloads.mixes import (
    TABLE5_WORKLOADS,
    Workload,
    make_workload_suite,
    workload_from_specs,
)

#: Schedulers in the paper's motivation figure (Figure 1).
BASELINES = ("frfcfs", "stfm", "parbs", "atlas")
#: Schedulers in the paper's main result figure (Figure 4).
ALL_SCHEDULERS = BASELINES + ("tcm",)
#: The intensity categories of the Figure 1 and 4 suite.
SUITE_INTENSITIES = (0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ScatterPoint:
    """One scheduler's position in performance/fairness space."""

    scheduler: str
    weighted_speedup: float
    maximum_slowdown: float
    harmonic_speedup: float


def scatter_means(results: Sequence[PointResult]) -> List[ScatterPoint]:
    """Average WS/MS/HS of each scheduler (in order of first appearance)
    over a group holding the same number of points per scheduler."""
    sums: Dict[str, List[float]] = {}
    for result in results:
        s = sums.setdefault(result.point.scheduler, [0.0, 0.0, 0.0])
        s[0] += result.weighted_speedup
        s[1] += result.maximum_slowdown
        s[2] += result.harmonic_speedup
    n = len(results) // max(len(sums), 1)
    return [
        ScatterPoint(name, s[0] / n, s[1] / n, s[2] / n)
        for name, s in sums.items()
    ]


def group_means(results: Sequence[PointResult],
                size: int) -> List[List[ScatterPoint]]:
    """:func:`scatter_means` of each consecutive group of ``size``."""
    return [scatter_means(results[i:i + size])
            for i in range(0, len(results), size)]


def groups_plan(name: str, groups: Sequence[tuple], per_category: int,
                config: Optional[SimConfig], base_seed: int,
                description: str = "") -> CampaignPlan:
    """One group of points after another, each group a (tag, schedulers,
    params, intensities) suite: see :func:`repro.campaign.suite_plan`."""
    config = config or SimConfig()
    points: Tuple[CampaignPoint, ...] = ()
    for tag, schedulers, params, intensities in groups:
        suite = make_workload_suite(
            intensities, per_category, num_threads=config.num_threads,
            base_seed=base_seed,
        )
        points += suite_plan(name, suite, schedulers, config, base_seed,
                             params, tag=tag).points
    return CampaignPlan(name, points, description)


def scheduler_scatter(
    scheduler_names: Sequence[str],
    per_category: int = 4,
    intensities: Sequence[float] = SUITE_INTENSITIES,
    config: Optional[SimConfig] = None,
    params: Optional[Dict[str, object]] = None,
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> List[ScatterPoint]:
    """Average WS/MS/HS of each scheduler over a workload suite.

    The paper's full suite is 32 workloads per category over the 50%,
    75% and 100% intensity categories (96 total); ``per_category``
    scales that down for quick runs.  As for every suite figure,
    ``workers`` shards the points across processes and ``store`` (a
    :class:`repro.campaign.CampaignStore` or path) caches them.
    """
    plan = groups_plan("scatter", [("", scheduler_names, params, intensities)],
                       per_category, config, base_seed)
    return scatter_means(run_points(plan, workers=workers, store=store))


def figure1_plan(per_category: int = 4, config: Optional[SimConfig] = None,
                 base_seed: int = 0) -> CampaignPlan:
    """Figure 1's points: the four prior schedulers over the suite."""
    return groups_plan(
        "fig1", [("fig1", BASELINES, None, SUITE_INTENSITIES)], per_category,
        config, base_seed, "Figure 1: the prior schedulers over the suite",
    )


def figure1(
    per_category: int = 4,
    config: Optional[SimConfig] = None,
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> List[ScatterPoint]:
    """Figure 1: fairness/throughput of the four prior schedulers."""
    plan = figure1_plan(per_category, config, base_seed)
    return scatter_means(run_points(plan, workers=workers, store=store))


def figure4_plan(per_category: int = 4, config: Optional[SimConfig] = None,
                 base_seed: int = 0,
                 params: Optional[Dict[str, object]] = None) -> CampaignPlan:
    """Figure 4's points: every scheduler over the suite."""
    return groups_plan(
        "fig4", [("fig4", ALL_SCHEDULERS, params, SUITE_INTENSITIES)],
        per_category, config, base_seed, "Figure 4 main result: all "
        "schedulers over the 50/75/100% intensity suite",
    )


def figure4(
    per_category: int = 4,
    config: Optional[SimConfig] = None,
    params: Optional[Dict[str, object]] = None,
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> List[ScatterPoint]:
    """Figure 4: the main result — TCM vs all four baselines."""
    plan = figure4_plan(per_category, config, base_seed, params)
    return scatter_means(run_points(plan, workers=workers, store=store))


# ----------------------------------------------------------------------
# Figure 2: susceptibility of the two microbenchmarks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure2Result:
    """Slowdowns under the two static prioritisation choices."""

    prioritize_random: Tuple[float, float]   # (random-access, streaming)
    prioritize_streaming: Tuple[float, float]

    @property
    def deprioritized_random_slowdown(self) -> float:
        return self.prioritize_streaming[0]

    @property
    def deprioritized_streaming_slowdown(self) -> float:
        return self.prioritize_random[1]


def figure2(config: Optional[SimConfig] = None, seed: int = 0) -> Figure2Result:
    """Figure 2: strict prioritisation between the Table 1 threads.

    Runs the random-access and streaming microbenchmarks together
    twice — once with each strictly prioritised — and reports both
    threads' slowdowns for each policy.  The paper's point: the
    deprioritised random-access thread slows down far more (>11x) than
    the deprioritised streaming thread.
    """
    config = config or SimConfig()
    workload = workload_from_specs("microbench", (RANDOM_ACCESS, STREAMING))
    alones = alone_ipcs(workload, config, seed)

    def run_with_order(order: Tuple[int, int]) -> Tuple[float, float]:
        system = System(
            workload, StaticPriorityScheduler(order), config, seed=seed
        )
        result = system.run()
        return tuple(
            alone / shared if shared > 0 else float("inf")
            for alone, shared in zip(alones, result.ipcs)
        )

    return Figure2Result(
        prioritize_random=run_with_order((0, 1)),
        prioritize_streaming=run_with_order((1, 0)),
    )


# ----------------------------------------------------------------------
# Figure 3: shuffle permutation patterns
# ----------------------------------------------------------------------


def figure3(num_threads: int = 4, steps: Optional[int] = None) -> Dict[str, List[List[int]]]:
    """Figure 3: successive priority permutations of both shuffles.

    Threads are labelled 0..N-1 in increasing niceness; each entry of a
    sequence is the priority array after one interval (last position =
    highest priority).
    """
    if steps is None:
        steps = 2 * num_threads
    thread_ids = list(range(num_threads))
    niceness = {tid: tid for tid in thread_ids}
    rr = RoundRobinShuffler(thread_ids)
    ins = InsertionShuffler(thread_ids, niceness)
    sequences = {"round_robin": [rr.order()], "insertion": [ins.order()]}
    for _ in range(steps):
        rr.advance()
        ins.advance()
        sequences["round_robin"].append(rr.order())
        sequences["insertion"].append(ins.order())
    return sequences


# ----------------------------------------------------------------------
# Figure 5: individual workloads A-D
# ----------------------------------------------------------------------


def figure5_plan(per_category: int = 4, config: Optional[SimConfig] = None,
                 base_seed: int = 0,
                 scheduler_names: Sequence[str] = ALL_SCHEDULERS,
                 ) -> CampaignPlan:
    """Figure 5's points: workloads A-D, then ``per_category``
    50%-intensity mixes for the average."""
    config = config or SimConfig()
    table5 = tuple(
        CampaignPoint(workload=w, scheduler=s, config=config,
                      seed=base_seed, tag=f"fig5-{name}")
        for name, w in TABLE5_WORKLOADS.items()
        for s in scheduler_names
    )
    avg = groups_plan("fig5", [("fig5-AVG", scheduler_names, None, (0.5,))],
                      per_category, config, base_seed)
    return CampaignPlan("fig5", table5 + avg.points,
                        "Figure 5: workloads A-D and a 50% average")


def figure5(
    config: Optional[SimConfig] = None,
    scheduler_names: Sequence[str] = ALL_SCHEDULERS,
    avg_workloads: int = 4,
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> Dict[str, Dict[str, SchedulerScore]]:
    """Figure 5: WS and MS for the Table 5 workloads plus an average.

    Returns {workload_name: {scheduler: score}}; the ``AVG`` entry
    averages ``avg_workloads`` random 50%-intensity mixes (the paper
    uses 32).  The per-workload scores carry ``result=None`` (raw
    :class:`RunResult` objects stay inside the campaign engine).
    """
    plan = figure5_plan(avg_workloads, config, base_seed, scheduler_names)
    results = run_points(plan, workers=workers, store=store)
    k = len(scheduler_names) * len(TABLE5_WORKLOADS)
    means = group_means(results[:k], len(scheduler_names))
    names = [(name, w.name) for name, w in TABLE5_WORKLOADS.items()]
    if avg_workloads > 0:
        means.append(scatter_means(results[k:]))
        names.append(("AVG", "AVG"))
    return {
        name: {
            p.scheduler: SchedulerScore(
                p.scheduler, workload, p.weighted_speedup,
                p.maximum_slowdown, p.harmonic_speedup, result=None,
            )
            for p in group
        }
        for (name, workload), group in zip(names, means)
    }


# ----------------------------------------------------------------------
# Figure 7: effect of workload memory intensity
# ----------------------------------------------------------------------


def figure7_plan(per_category: int = 4, config: Optional[SimConfig] = None,
                 base_seed: int = 0,
                 intensities: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
                 ) -> CampaignPlan:
    """Figure 7's points: every scheduler over a suite per intensity."""
    return groups_plan(
        "fig7", [(f"intensity={intensity}", ALL_SCHEDULERS, None, (intensity,))
                 for intensity in intensities],
        per_category, config, base_seed,
        "Figure 7: WS/MS per scheduler per intensity category",
    )


def figure7(
    per_category: int = 4,
    intensities: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    config: Optional[SimConfig] = None,
    base_seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> Dict[float, List[ScatterPoint]]:
    """Figure 7: WS and MS per scheduler at each intensity category."""
    plan = figure7_plan(per_category, config, base_seed, intensities)
    results = run_points(plan, workers=workers, store=store)
    return dict(zip(intensities, group_means(
        results, per_category * len(ALL_SCHEDULERS))))


# ----------------------------------------------------------------------
# Figure 8: OS thread weights
# ----------------------------------------------------------------------

#: The paper's weighted mix: weights assigned in the worst possible
#: manner for throughput (heavier threads get larger weights).
FIGURE8_BENCHMARKS: Tuple[Tuple[str, int], ...] = (
    ("gcc", 1),
    ("wrf", 2),
    ("GemsFDTD", 4),
    ("lbm", 8),
    ("libquantum", 16),
    ("mcf", 32),
)


def figure8_workload(instances: int = 4) -> Workload:
    """The Figure 8 weighted workload (instances x 6 benchmarks)."""
    names: List[str] = []
    weights: List[int] = []
    for name, weight in FIGURE8_BENCHMARKS:
        names.extend([name] * instances)
        weights.extend([weight] * instances)
    return Workload(
        name="fig8-weighted",
        benchmark_names=tuple(names),
        weights=tuple(weights),
    )


@dataclass(frozen=True)
class Figure8Result:
    """Per-benchmark speedups under ATLAS and TCM with OS weights."""

    speedups: Dict[str, Dict[str, float]]   # scheduler -> benchmark -> speedup
    weighted_speedup: Dict[str, float]
    maximum_slowdown: Dict[str, float]


def figure8_plan(per_category: int = 0, config: Optional[SimConfig] = None,
                 base_seed: int = 0, instances: int = 4) -> CampaignPlan:
    """Figure 8's points: the weighted workload under ATLAS and TCM
    (``per_category`` is unused: the figure has one workload)."""
    return suite_plan("fig8", [figure8_workload(instances)], ("atlas", "tcm"),
                      config, base_seed, tag="fig8",
                      description="Figure 8: thread weights, ATLAS vs TCM")


def figure8(
    config: Optional[SimConfig] = None,
    instances: int = 4,
    seed: int = 0,
    workers: Optional[int] = None,
    store=None,
) -> Figure8Result:
    """Figure 8: enforcing thread weights without destroying the rest.

    ATLAS blindly honours weights (scaling attained service), crushing
    the light threads; TCM honours them within clusters, keeping the
    latency-sensitive threads fast.
    """
    plan = figure8_plan(config=config, base_seed=seed, instances=instances)
    results = run_points(plan, workers=workers, store=store)
    speedups: Dict[str, Dict[str, float]] = {}
    for result in results:
        per_bench: Dict[str, List[float]] = {}
        for thread in result.threads:
            per_bench.setdefault(thread["benchmark"], []).append(
                thread["ipc"] / thread["alone_ipc"]
            )
        speedups[result.point.scheduler] = {
            bench: sum(vals) / len(vals) for bench, vals in per_bench.items()
        }
    return Figure8Result(
        speedups=speedups,
        weighted_speedup={r.point.scheduler: r.weighted_speedup
                          for r in results},
        maximum_slowdown={r.point.scheduler: r.maximum_slowdown
                          for r in results},
    )
