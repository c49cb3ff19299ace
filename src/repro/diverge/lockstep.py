"""Lockstep differential execution with first-divergence bisection.

Runs two simulations checkpoint-by-checkpoint — two seeds, two
schedulers, two configs, or a live run vs a recorded baseline —
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

import json
from dataclasses import dataclass, field
from pathlib import Path
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
    wrappers) can bypass this class entirely.
    """

    scheduler: str = "tcm"
    intensity: float = 0.5
    num_threads: int = 8
    mix_seed: int = 7
    seed: int = 11
    run_cycles: int = 150_000

    def label(self) -> str:
        return f"{self.scheduler}/i{self.intensity:g}/s{self.seed}"

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
    """Outcome of a lockstep comparison or bisection."""

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


def resolve_cadence(cadence, config: Optional[SimConfig] = None) -> int:
    """Map a cadence spec to cycles: a positive int passes through;
    ``"quantum"`` (or None) means one checkpoint per scheduling
    quantum; ``"cycle"`` means every cycle."""
    if cadence is None or cadence == "quantum":
        return (config or SimConfig()).quantum_cycles
    if cadence == "cycle":
        return 1
    cadence = int(cadence)
    if cadence < 1:
        raise ValueError("checkpoint cadence must be >= 1 cycle")
    return cadence


def lockstep_compare(
    factory_a: Callable[[], object],
    factory_b: Callable[[], object],
    horizon: int,
    cadence: int,
    components: Iterable[str] = COMPONENTS,
    ring: int = DEFAULT_RING,
) -> LockstepResult:
    """One coarse lockstep pass: stop at the first mismatching
    checkpoint, no refinement."""
    components = tuple(components)
    divergence, checked = _scan(
        factory_a, factory_b, 0, horizon, cadence, components, ring
    )
    return LockstepResult(
        diverged=divergence is not None,
        horizon=horizon,
        cadence=cadence,
        checkpoints=checked,
        rounds=1,
        divergence=divergence,
    )


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


def spec_for_golden_key(key: str) -> RunSpec:
    """The :class:`RunSpec` reproducing one golden-matrix point.

    Bridges ``validate goldens`` failures into the forensic machinery:
    a drifting key like ``mix-50pct-s7/tcm/s11`` becomes a spec whose
    ``build()`` replays exactly that run, so it can be compared with
    its recorded checkpoints (:func:`compare_to_recording`).
    """
    import re

    from repro.validate.goldens import (
        GOLDEN_CONFIG,
        GOLDEN_THREADS,
        parse_golden_key,
    )

    mix, scheduler, seed = parse_golden_key(key)
    match = re.fullmatch(r"mix-(\d+)pct-s(\d+)", mix)
    if match is None or not scheduler or not seed:
        raise ValueError(f"cannot reconstruct a run from golden key {key!r}")
    return RunSpec(
        scheduler=scheduler,
        intensity=int(match.group(1)) / 100,
        num_threads=GOLDEN_THREADS,
        mix_seed=int(match.group(2)),
        seed=int(seed),
        run_cycles=GOLDEN_CONFIG.run_cycles,
    )


# ----------------------------------------------------------------------
# recorded baselines
# ----------------------------------------------------------------------

RECORDING_SCHEMA = "repro.diverge.recording/v1"


def record_checkpoints(
    factory: Callable[[], object],
    horizon: int,
    cadence: int,
    components: Iterable[str] = COMPONENTS,
    path: Optional[Path] = None,
    spec: Optional[RunSpec] = None,
) -> dict:
    """Run once, recording per-checkpoint fingerprints for later
    live-vs-baseline comparison (e.g. across commits)."""
    components = tuple(components)
    system, probe = _start(factory, components, ring=0)
    checkpoints: Dict[str, Dict[str, str]] = {}
    cycle = 0
    while cycle < horizon:
        cycle = min(cycle + cadence, horizon)
        system.advance(cycle)
        checkpoints[str(cycle)] = probe.fingerprint()
    recording = {
        "schema": RECORDING_SCHEMA,
        "horizon": horizon,
        "cadence": cadence,
        "components": list(components),
        "spec": spec.to_json() if spec is not None else None,
        "checkpoints": checkpoints,
    }
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(recording, indent=1, sort_keys=True))
    return recording


def compare_to_recording(
    factory: Callable[[], object],
    recording: dict,
    ring: int = DEFAULT_RING,
) -> LockstepResult:
    """Replay a live run against a recorded baseline's checkpoints.

    Localisation stops at the recording's cadence (a recording cannot
    be refined after the fact); for exact-cycle bisection run both
    sides live with :func:`bisect_divergence`.
    """
    if recording.get("schema") != RECORDING_SCHEMA:
        raise ValueError(
            f"not a diverge recording (schema {recording.get('schema')!r})"
        )
    components = tuple(recording["components"])
    horizon = recording["horizon"]
    cadence = recording["cadence"]
    system, probe = _start(factory, components, ring)
    baseline = recording["checkpoints"]
    last_match = 0
    checked = 0
    cycle = 0
    while cycle < horizon:
        cycle = min(cycle + cadence, horizon)
        system.advance(cycle)
        expected = baseline.get(str(cycle))
        live = probe.fingerprint()
        checked += 1
        if expected != live:
            snapshot = probe.snapshot()
            divergence = Divergence(
                cycle=cycle,
                last_match=last_match,
                exact=cycle == last_match + 1,
                components=sorted(
                    name for name in live
                    if expected is None or live[name] != expected.get(name)
                ),
                fingerprint_a=expected or {},
                fingerprint_b=live,
                diff=[],  # the baseline holds hashes, not state
                snapshot_a={},
                snapshot_b=snapshot,
                rings_a={},
                rings_b=probe.rings(),
            )
            return LockstepResult(
                diverged=True,
                horizon=horizon,
                cadence=cadence,
                checkpoints=checked,
                rounds=1,
                divergence=divergence,
            )
        last_match = cycle
    return LockstepResult(
        diverged=False,
        horizon=horizon,
        cadence=cadence,
        checkpoints=checked,
        rounds=1,
    )
