"""Simulator self-profiling: where does the *engine's* wall-time go?

``repro.telemetry`` and ``repro.obs`` instrument the *simulated*
machine; this module instruments the simulator itself.  A
:class:`Profiler` attaches to a built :class:`~repro.sim.system.System`
by per-instance bound-method wrapping, restored at detach, so a system
that was never profiled executes byte-identical code.  The profiler is
also a run observer (:mod:`repro.sim.observer`): its ``begin``/``end``
hooks time the run.

Every wrapped call pushes a frame label onto a shared stack and
accumulates *inclusive* wall time and call counts per stack path, which
is exactly the shape a collapsed-stack flame graph wants
(:mod:`repro.prof.flame`).  Components:

* ``run`` (root) — self time is the event loop itself: heap pops,
  dispatch branching (the *engine event dispatch* cost);
* ``engine.*`` — quantum bookkeeping and bank-free dispatch;
* ``sched.*[NAME]`` — every scheduler's grant/rank/select paths, via
  :meth:`repro.schedulers.base.Scheduler.prof_points` (policies extend
  the base list with their internal hot methods: TCM's rank rebuild and
  shuffler choice, PAR-BS's batch formation, STFM's slowdown
  re-evaluation, FQM's virtual-time scan);
* ``dram.*`` — bank/channel service timing;
* ``cpu.*`` — thread issue/retire and end-of-run finalize;
* ``telemetry.*`` / ``obs.*`` — tracer emit and epoch sampling, and
  every protocol hook of each observer attached before the profiler
  (``obs.<observer name>.<hook>``: ``obs.spans.grant``,
  ``obs.explain.decision``, ``obs.probe.event``, the invariant
  oracle's ``obs.oracle.grant`` ...).

Deep mode (``Profiler(deep=True)``) additionally runs :mod:`cProfile`
over the wrapped ``run`` for function-level detail below the explicit
instrumentation points.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.observer import Observer, overridden_hooks

#: stack-path key: root-first tuple of frame labels
Path = Tuple[str, ...]

#: frame-label prefix -> component bucket (shares sum to exactly 1.0
#: because every frame maps to exactly one bucket and ``other`` catches
#: the rest)
_COMPONENT_PREFIXES = (
    ("sched.", "scheduler"),
    ("dram.", "dram"),
    ("cpu.", "cpu"),
    ("telemetry.", "telemetry"),
    ("obs.", "obs"),
    ("engine.", "engine"),
    ("run", "engine"),
)


def component_of(label: str) -> str:
    """Component bucket of a frame label (``sched.select[TCM]`` etc.)."""
    for prefix, component in _COMPONENT_PREFIXES:
        if label.startswith(prefix):
            return component
    return "other"


@dataclass
class ProfileNode:
    """Aggregated cost of one stack path."""

    path: Path
    inclusive_s: float
    calls: int


@dataclass
class ProfileReport:
    """A finished profile: per-path inclusive times plus run metadata.

    ``nodes`` maps root-first stack paths to inclusive seconds and call
    counts.  Self time of a path is its inclusive time minus the
    inclusive time of its direct children; component shares are the
    per-bucket sums of self time over the root's inclusive time, so
    they sum to 1.0 by construction.
    """

    nodes: Dict[Path, ProfileNode] = field(default_factory=dict)
    #: engine metadata recorded by the profiler's begin/end hooks
    wall_s: float = 0.0
    cycles: int = 0
    events: int = 0
    requests: int = 0
    scheduler: str = ""
    workload: str = ""
    #: cProfile text table when deep mode was on
    deep_table: Optional[str] = None

    # -- derived views --------------------------------------------------

    @property
    def total_s(self) -> float:
        """Inclusive time of the root frame (the profiled run)."""
        return sum(
            node.inclusive_s for path, node in self.nodes.items()
            if len(path) == 1
        )

    def self_times(self) -> Dict[Path, float]:
        """Self (exclusive) seconds per stack path, floored at zero."""
        selfs = {path: node.inclusive_s for path, node in self.nodes.items()}
        for path, node in self.nodes.items():
            if len(path) > 1:
                parent = path[:-1]
                if parent in selfs:
                    selfs[parent] -= node.inclusive_s
        return {path: max(0.0, s) for path, s in selfs.items()}

    def component_times(self) -> Dict[str, float]:
        """Self seconds summed per component bucket."""
        out: Dict[str, float] = {}
        for path, self_s in self.self_times().items():
            component = component_of(path[-1])
            out[component] = out.get(component, 0.0) + self_s
        return out

    def component_shares(self) -> Dict[str, float]:
        """Fraction of the profiled wall-time per component (sums to 1)."""
        times = self.component_times()
        total = sum(times.values())
        if total <= 0.0:
            return {}
        return {name: s / total for name, s in
                sorted(times.items(), key=lambda kv: -kv[1])}

    def slowest(self, limit: int = 12) -> List[ProfileNode]:
        """The paths with the largest self time, descending."""
        selfs = self.self_times()
        ranked = sorted(self.nodes.values(),
                        key=lambda n: -selfs.get(n.path, 0.0))
        return ranked[:limit]

    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def requests_per_sec(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0


class Profiler(Observer):
    """Phase-scoped wall-time profiler for one simulated run.

    Usage::

        profiler = Profiler()
        system = System(workload, scheduler, config)
        profiler.attach(system)
        system.run()
        report = profiler.detach()

    Or in one call: :func:`profile_run`.  Attach wraps instrumentation
    points on the *instance*; detach restores every one, leaving the
    system indistinguishable from an unprofiled one.  Attach the
    profiler after the observers it should time.
    """

    name = "prof"

    def __init__(self, deep: bool = False):
        self.deep = deep
        self._stack: List[str] = []
        self._inclusive: Dict[Path, float] = {}
        self._calls: Dict[Path, int] = {}
        self._originals: List[Tuple[object, str, object, bool]] = []
        self._system = None
        self._cprofile = None
        self._run_t0 = 0.0
        self._events_at_start = 0
        self._report = ProfileReport()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, obj, name: str, label: str) -> None:
        original = getattr(obj, name)
        stack = self._stack
        inclusive = self._inclusive
        calls = self._calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(label)
            key = tuple(stack)
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                dt = perf() - t0
                inclusive[key] = inclusive.get(key, 0.0) + dt
                calls[key] = calls.get(key, 0) + 1
                stack.pop()

        self._originals.append((obj, name, original, name in vars(obj)))
        setattr(obj, name, wrapper)

    def _wrap_run(self, system) -> None:
        """Root frame around ``run``; also hosts deep-mode cProfile."""
        original = system.run
        stack = self._stack
        inclusive = self._inclusive
        calls = self._calls
        perf = time.perf_counter
        profiler = self

        def run(*args, **kwargs):
            stack.append("run")
            key = tuple(stack)
            t0 = perf()
            try:
                if profiler.deep:
                    import cProfile

                    profiler._cprofile = cProfile.Profile()
                    profiler._cprofile.enable()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        profiler._cprofile.disable()
                return original(*args, **kwargs)
            finally:
                dt = perf() - t0
                inclusive[key] = inclusive.get(key, 0.0) + dt
                calls[key] = calls.get(key, 0) + 1
                stack.pop()

        self._originals.append((system, "run", original, "run" in vars(system)))
        setattr(system, "run", run)

    # -- lifecycle ------------------------------------------------------

    def attach(self, system) -> "Profiler":
        """Install instrumentation points; call before ``system.run()``."""
        if self._system is not None:
            raise RuntimeError("profiler already attached")
        system.attach(self)
        self._system = system
        self._wrap_run(system)
        # engine-internal actions
        self._wrap(system, "_issue_miss", "cpu.issue")
        self._wrap(system, "_complete_request", "cpu.retire")
        self._wrap(system, "_quantum_boundary", "engine.quantum")
        self._wrap(system, "_try_schedule", "engine.dispatch")
        # scheduler grant/rank paths, as declared by the policy itself
        scheduler = system.scheduler
        for label, method in scheduler.prof_points():
            if hasattr(scheduler, method):
                self._wrap(scheduler, method, label)
        # DRAM bank/channel timing
        for channel in system.channels:
            self._wrap(channel, "start_service", "dram.service")
            self._wrap(channel, "start_write_service", "dram.write")
        # cpu retire detail + end-of-run finalize
        for thread in system.threads:
            self._wrap(thread, "finalize", "cpu.finalize")
        # observability layers, when this run carries them
        if system._tracer is not None:
            self._wrap(system._tracer, "write", "telemetry.write")
            self._wrap(system._tracer, "write_row", "telemetry.write_row")
        if system._sampler is not None:
            self._wrap(system._sampler, "sample", "telemetry.sample")
        for observer in system.observers:
            if observer is not self:
                for hook in overridden_hooks(observer):
                    label = f"obs.{observer.name}.{hook.removeprefix('on_')}"
                    self._wrap(observer, hook, label)
        return self

    def detach(self) -> ProfileReport:
        """Restore every wrapped method and return the finished report."""
        if self._system is None:
            raise RuntimeError("profiler not attached")
        for obj, name, original, was_instance in reversed(self._originals):
            if was_instance:
                setattr(obj, name, original)
            else:
                delattr(obj, name)
        self._originals.clear()
        self._system.detach(self)
        self._system = None
        report = self._report
        report.nodes = {
            path: ProfileNode(path, s, self._calls.get(path, 0))
            for path, s in self._inclusive.items()
        }
        if report.wall_s == 0.0:
            report.wall_s = report.total_s
        if self._cprofile is not None:
            report.deep_table = _deep_table(self._cprofile)
        return report

    # -- observer hooks -------------------------------------------------

    def begin(self, system) -> None:
        self._run_t0 = time.perf_counter()
        self._events_at_start = system._seq
        self._report.scheduler = system.scheduler.name
        self._report.workload = system.workload.name

    def end(self, system, horizon: int) -> None:
        self._report.wall_s += time.perf_counter() - self._run_t0
        self._report.cycles = horizon
        self._report.events += system._seq - self._events_at_start
        self._report.requests = sum(
            ch.serviced_requests for ch in system.channels
        )


def _deep_table(profile, limit: int = 20) -> str:
    """Top functions by cumulative time from a cProfile run."""
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(limit)
    return buffer.getvalue()


def attach_profiler(system, deep: bool = False) -> Profiler:
    """Attach a fresh :class:`Profiler` to a built system."""
    return Profiler(deep=deep).attach(system)


def profile_run(
    workload,
    scheduler_name: str,
    config=None,
    seed: int = 0,
    deep: bool = False,
    telemetry=None,
    params=None,
):
    """Run one workload under one scheduler with the profiler attached.

    Returns ``(RunResult, ProfileReport)``.  The simulated outcome is
    byte-identical to an unprofiled run (covered by ``tests/prof``).
    """
    from repro.config import SimConfig
    from repro.schedulers import make_scheduler
    from repro.sim import System

    config = config or SimConfig()
    system = System(
        workload, make_scheduler(scheduler_name, params), config,
        seed=seed, telemetry=telemetry,
    )
    profiler = attach_profiler(system, deep=deep)
    result = system.run()
    return result, profiler.detach()
