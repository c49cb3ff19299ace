"""Lockstep differential execution with first-divergence bisection.

Runs two simulations checkpoint-by-checkpoint — two seeds, two
schedulers, two configs, or a run and a fault-injecting copy of it —
comparing :mod:`repro.diverge.probe` fingerprints at every
checkpoint.  On the first mismatch, :func:`bisect_divergence` re-runs
the bracketing window at geometrically finer cadence until two
*consecutive* checkpoints bracket the fault: the reported cycle is
exactly the first cycle whose events made the states differ.

Re-execution is the only rewind the simulator offers (state is never
copied back), so every refinement round builds fresh systems from the
run's factory, fast-forwards them to the last matching checkpoint in
one ``advance`` call, and steps the window.  That is sound because
stepping granularity cannot change a run's trajectory — ``advance(a);
advance(b)`` is bit-identical to ``advance(b)`` (pinned by the
stepping-equivalence tests) — and determinism replays the identical
divergence every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.config import SimConfig
from repro.diverge.probe import COMPONENTS, StateProbe
from repro.validate.fingerprint import compare_fingerprints

#: Cadence shrink factor between bisection rounds.
DEFAULT_REFINE = 8

#: Ring-buffer length for forensic event/decision context.
DEFAULT_RING = 64


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one lockstep side.

    ``build()`` constructs a fresh :class:`~repro.sim.system.System`;
    the lockstep machinery only ever needs a zero-argument factory, so
    anything constructible by hand (custom workloads, fault-injecting
    wrappers) can bypass this class entirely.  Each golden point's
    checkpoint recording carries its spec (``to_json``), so
    ``RunSpec(**spec).build()`` rebuilds that run.
    """

    scheduler: str = "tcm"
    intensity: float = 0.5
    num_threads: int = 8
    mix_seed: int = 7
    seed: int = 11
    run_cycles: int = 150_000

    def build(self):
        from repro import System, make_scheduler
        from repro.workloads import make_intensity_workload

        workload = make_intensity_workload(
            self.intensity,
            num_threads=self.num_threads,
            seed=self.mix_seed,
        )
        config = SimConfig(run_cycles=self.run_cycles)
        return System(
            workload, make_scheduler(self.scheduler), config,
            seed=self.seed,
        )

    def factory(self) -> Callable[[], object]:
        return self.build

    def to_json(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "intensity": self.intensity,
            "num_threads": self.num_threads,
            "mix_seed": self.mix_seed,
            "seed": self.seed,
            "run_cycles": self.run_cycles,
        }


@dataclass
class Divergence:
    """The first fingerprint mismatch, localised and explained."""

    #: first checkpoint whose fingerprints differ — with ``exact`` set,
    #: the first divergent *cycle*
    cycle: int
    #: last checkpoint at which both sides agreed
    last_match: int
    #: True when ``cycle == last_match + 1`` (bisected all the way)
    exact: bool
    #: component names whose fingerprints differ at ``cycle``
    components: List[str]
    fingerprint_a: Dict[str, str]
    fingerprint_b: Dict[str, str]
    #: field-level state diff: [{"path", "a", "b"}, ...]
    diff: List[dict]
    snapshot_a: dict
    snapshot_b: dict
    #: last events/decisions on each side, oldest first
    rings_a: dict = field(default_factory=dict)
    rings_b: dict = field(default_factory=dict)


@dataclass
class LockstepResult:
    """Outcome of a bisection (:func:`bisect_divergence`)."""

    diverged: bool
    horizon: int
    cadence: int
    #: fingerprint comparisons performed, all rounds included
    checkpoints: int
    #: bisection rounds executed (1 = coarse scan only)
    rounds: int
    divergence: Optional[Divergence] = None

    def summary(self) -> str:
        if not self.diverged:
            return (
                f"no divergence in {self.horizon} cycles "
                f"({self.checkpoints} checkpoints at cadence "
                f"{self.cadence})"
            )
        d = self.divergence
        where = f"cycle {d.cycle}" if d.exact else (
            f"window ({d.last_match}, {d.cycle}]"
        )
        return (
            f"first divergence at {where}: "
            f"{', '.join(d.components)} differ "
            f"({self.checkpoints} checkpoints, {self.rounds} round(s))"
        )


def _start(factory, components, ring):
    system = factory()
    probe = StateProbe(components=components, ring=ring).attach(system)
    system.start_run()
    return system, probe


def _diff_components(snapshot_a, snapshot_b) -> List[dict]:
    drifts = compare_fingerprints(snapshot_a, snapshot_b)
    return [
        {"path": f"{d.key}.{d.path}" if d.path else d.key,
         "a": d.golden, "b": d.fresh}
        for d in drifts
    ]


def _capture(probe_a, probe_b, cycle, last_match, exact) -> Divergence:
    fp_a = probe_a.fingerprint()
    fp_b = probe_b.fingerprint()
    snap_a = probe_a.snapshot()
    snap_b = probe_b.snapshot()
    return Divergence(
        cycle=cycle,
        last_match=last_match,
        exact=exact,
        components=sorted(
            name for name in fp_a if fp_a[name] != fp_b.get(name)
        ),
        fingerprint_a=fp_a,
        fingerprint_b=fp_b,
        diff=_diff_components(snap_a, snap_b),
        snapshot_a=snap_a,
        snapshot_b=snap_b,
        rings_a=probe_a.rings(),
        rings_b=probe_b.rings(),
    )


def _scan(factory_a, factory_b, lo, hi, cadence, components, ring):
    """Fresh systems fast-forwarded to ``lo`` (a known-good
    checkpoint), then compared every ``cadence`` cycles through ``hi``.

    Returns ``(divergence_or_None, checkpoints_compared)``; the
    divergence, if any, is captured with full snapshots and rings from
    the systems parked at the first mismatching checkpoint.
    """
    system_a, probe_a = _start(factory_a, components, ring)
    system_b, probe_b = _start(factory_b, components, ring)
    if lo > 0:
        system_a.advance(lo)
        system_b.advance(lo)
    last_match = lo
    checked = 0
    cycle = lo
    while cycle < hi:
        cycle = min(cycle + cadence, hi)
        system_a.advance(cycle)
        system_b.advance(cycle)
        checked += 1
        if probe_a.fingerprint() != probe_b.fingerprint():
            exact = cycle == last_match + 1
            return (
                _capture(probe_a, probe_b, cycle, last_match, exact),
                checked,
            )
        last_match = cycle
    return None, checked


def bisect_divergence(
    factory_a: Callable[[], object],
    factory_b: Callable[[], object],
    horizon: int,
    cadence: int,
    components: Iterable[str] = COMPONENTS,
    ring: int = DEFAULT_RING,
    refine: int = DEFAULT_REFINE,
) -> LockstepResult:
    """Lockstep compare, then re-run the bracketing window at
    geometrically finer cadence down to the exact first divergent
    cycle."""
    if refine < 2:
        raise ValueError("refine factor must be >= 2")
    components = tuple(components)
    divergence, checkpoints = _scan(
        factory_a, factory_b, 0, horizon, cadence, components, ring
    )
    rounds = 1
    while divergence is not None and not divergence.exact:
        window = divergence.cycle - divergence.last_match
        finer = max(1, -(-window // refine))
        divergence, checked = _scan(
            factory_a, factory_b,
            divergence.last_match, divergence.cycle,
            finer, components, ring,
        )
        checkpoints += checked
        rounds += 1
        if divergence is None:  # pragma: no cover - determinism breach
            raise RuntimeError(
                "divergence did not reproduce during refinement; "
                "the run factories are not deterministic"
            )
    return LockstepResult(
        diverged=divergence is not None,
        horizon=horizon,
        cadence=cadence,
        checkpoints=checkpoints,
        rounds=rounds,
        divergence=divergence,
    )
