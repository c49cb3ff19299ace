"""Declarative campaign plans.

A :class:`CampaignPlan` is a flat, ordered list of
:class:`CampaignPoint` work units — one (workload, scheduler, config,
params, seed) simulation each.  Plans are pure data: they serialise to
JSON (``save``/``load``) so a campaign can be described once, launched,
killed, and resumed later against the same store.

Builders cover the common shapes:

* :func:`grid_plan` — full cross product of workloads x schedulers x
  configs x seeds.
* :func:`suite_plan` — the evaluation idiom used throughout the
  figures: workload *i* runs with seed ``base_seed + i`` under every
  scheduler.
* :func:`preset_plan` — named presets: each suite figure's own plan
  (``fig1``, ``fig4``-``fig8``, ``table6``-``table8``), built by the
  figure's ``*_plan`` function in :mod:`repro.experiments`, plus the
  4-point CI ``smoke`` campaign.  ``campaign run --preset
  fig6`` and ``paper fig6`` therefore run, and store, the same points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    ATLASParams,
    PARBSParams,
    STFMParams,
    SimConfig,
    TCMParams,
)
from repro.campaign.hashing import canonicalize, point_key
from repro.workloads.mixes import (
    Workload,
    make_workload_suite,
    workload_from_dict,
    workload_to_dict,
)

#: Registry used to round-trip scheduler params through JSON.
PARAM_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (TCMParams, ATLASParams, PARBSParams, STFMParams)
}


def params_to_dict(params: Optional[object]) -> Optional[dict]:
    if params is None:
        return None
    name = type(params).__name__
    if name not in PARAM_TYPES:
        raise TypeError(
            f"unregistered params type {name!r}; add it to "
            "repro.campaign.plan.PARAM_TYPES"
        )
    return {"type": name, "fields": canonicalize(params)}


def params_from_dict(data: Optional[dict]) -> Optional[object]:
    if data is None:
        return None
    cls = PARAM_TYPES[data["type"]]
    fields = dict(data["fields"])
    # tuple-typed fields (e.g. TCMParams.thread_weights) decay to lists
    # in JSON; restore them.
    for key, value in fields.items():
        if isinstance(value, list):
            fields[key] = tuple(value)
    return cls(**fields)


def config_to_dict(config: SimConfig) -> dict:
    return canonicalize(config)


def config_from_dict(data: dict) -> SimConfig:
    from repro.config import DramTimings

    fields = dict(data)
    fields["timings"] = DramTimings(**fields["timings"])
    return SimConfig(**fields)


@dataclass(frozen=True)
class CampaignPoint:
    """One unit of work: a single simulation plus its scoring."""

    workload: Workload
    scheduler: str
    config: SimConfig
    seed: int = 0
    params: Optional[object] = None
    #: Free-form grouping label (e.g. the figure or sweep value this
    #: point belongs to); not part of the cache key.
    tag: str = ""

    @property
    def key(self) -> str:
        """Content-addressed store key of this point's result."""
        return point_key(
            self.workload, self.scheduler, self.config, self.seed,
            self.params,
        )

    def to_dict(self) -> dict:
        return {
            "workload": workload_to_dict(self.workload),
            "scheduler": self.scheduler,
            "config": config_to_dict(self.config),
            "seed": self.seed,
            "params": params_to_dict(self.params),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignPoint":
        return cls(
            workload=workload_from_dict(data["workload"]),
            scheduler=data["scheduler"],
            config=config_from_dict(data["config"]),
            seed=data["seed"],
            params=params_from_dict(data.get("params")),
            tag=data.get("tag", ""),
        )


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered, serialisable list of campaign points."""

    name: str
    points: Tuple[CampaignPoint, ...]
    description: str = ""

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def keys(self) -> List[str]:
        return [p.key for p in self.points]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignPlan":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            points=tuple(
                CampaignPoint.from_dict(p) for p in data["points"]
            ),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path) -> "CampaignPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def grid_plan(
    name: str,
    workloads: Sequence[Workload],
    schedulers: Sequence[str],
    configs: Optional[Sequence[SimConfig]] = None,
    seeds: Sequence[int] = (0,),
    params: Optional[Dict[str, object]] = None,
    description: str = "",
) -> CampaignPlan:
    """Full cross product: workloads x schedulers x configs x seeds."""
    configs = tuple(configs) if configs is not None else (SimConfig(),)
    params = params or {}
    points = tuple(
        CampaignPoint(
            workload=w, scheduler=s, config=c, seed=seed,
            params=params.get(s),
        )
        for c in configs
        for seed in seeds
        for w in workloads
        for s in schedulers
    )
    return CampaignPlan(name=name, points=points, description=description)


def suite_plan(
    name: str,
    suite: Sequence[Workload],
    schedulers: Sequence[str],
    config: Optional[SimConfig] = None,
    base_seed: int = 0,
    params: Optional[Dict[str, object]] = None,
    tag: str = "",
    description: str = "",
) -> CampaignPlan:
    """The figures' idiom: workload ``i`` runs with seed ``base_seed+i``."""
    config = config or SimConfig()
    params = params or {}
    points = tuple(
        CampaignPoint(
            workload=w, scheduler=s, config=config, seed=base_seed + i,
            params=params.get(s), tag=tag,
        )
        for i, w in enumerate(suite)
        for s in schedulers
    )
    return CampaignPlan(name=name, points=points, description=description)


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------


def _figure_plan(module: str, function: str) -> Callable:
    """A figure's ``*_plan`` function in ``repro.experiments.<module>``,
    looked up on first use: those modules import this one."""
    return lambda *args: getattr(
        import_module(f"repro.experiments.{module}"), function)(*args)


def _smoke_plan(per_category: int, config: SimConfig,
                base_seed: int) -> CampaignPlan:
    """A 4-point CI smoke campaign (2 workloads x 2 schedulers)."""
    quick = config.with_(quantum_cycles=25_000, run_cycles=75_000)
    suite = make_workload_suite(
        (0.5,), 2, num_threads=8, base_seed=base_seed,
    )
    return suite_plan(
        "smoke", suite, ("frfcfs", "tcm"), quick, base_seed, tag="smoke",
        description="4-point end-to-end smoke campaign",
    )


#: Named preset campaigns: name -> builder(per_category, config, base_seed).
#: Each suite figure's preset is the plan its ``figureN``/``tableN`` runs.
PRESET_PLANS: Dict[str, Callable[[int, SimConfig, int], CampaignPlan]] = {
    "fig1": _figure_plan("figures", "figure1_plan"),
    "fig4": _figure_plan("figures", "figure4_plan"),
    "fig5": _figure_plan("figures", "figure5_plan"),
    "fig6": _figure_plan("sweeps", "figure6_plan"),
    "fig7": _figure_plan("figures", "figure7_plan"),
    "fig8": _figure_plan("figures", "figure8_plan"),
    "table6": _figure_plan("tables", "table6_plan"),
    "table7": _figure_plan("sweeps", "table7_plan"),
    "table8": _figure_plan("sweeps", "table8_plan"),
    "smoke": _smoke_plan,
}


def preset_plan(
    name: str,
    per_category: int = 4,
    config: Optional[SimConfig] = None,
    base_seed: int = 0,
) -> CampaignPlan:
    """Build a named preset campaign at the given scale."""
    try:
        builder = PRESET_PLANS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESET_PLANS)}"
        ) from None
    return builder(per_category, config or SimConfig(), base_seed)
