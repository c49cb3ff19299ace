"""Simulator self-profiling: where does the *engine's* wall-time go?

``repro.telemetry`` and ``repro.obs`` instrument the *simulated*
machine; this module samples the simulator itself.  A :class:`Profiler`
is a run observer (:mod:`repro.sim.observer`): its ``begin`` hook starts
one ``ITIMER_PROF`` interval timer and its ``end`` hook stops it.  On
every ``SIGPROF`` the handler reads the interrupted stack and counts
one sample against its root-first path of frame labels, which is
exactly the shape a collapsed-stack flame graph wants
(:mod:`repro.prof.flame`).  Nothing is wrapped, so a profiled run takes
the loop a plain run takes (the fused loop, as a rule), and the handler
reads frames only, so the simulated outcome is bit-identical.

Labels come from the code.  Every path starts at ``run``; below it,
each ``repro`` frame from the outermost ``System`` frame inward adds
one label:

* a frame of :func:`repro.sim.fused.advance_fused` (or of a closure in
  it) takes the tag of the block that holds its line — the
  ``# -- [label]`` markers in ``fused.py``;
* a frame in a module of the policy's class hierarchy, and every
  ``repro`` frame it calls, is ``sched.<function>[<policy name>]``;
* the first frame of an observer hook, ``obs.<observer>.<hook>``, or of
  :mod:`repro.telemetry`, ``telemetry.<function>``, ends the path, so
  an observer's cost, including what it calls (explain's shadow
  policies), lands on that one label;
* any other ``repro`` frame is ``<layer>.<function>``, the layer named
  after its package (``sim`` and ``core`` are ``engine``, ``cpu`` and
  ``workloads`` are ``cpu``);
* frames outside ``repro`` (generated ``__init__`` methods, the stdlib)
  add no label: their time is their caller's self time.

The kernel delivers the timer on its scheduler tick, so a run gets
about 250 samples per second of CPU time whatever :data:`INTERVAL_S`
asks; a component share to ±1 point needs about 10 s of samples (see
docs/PROFILING.md).
"""

from __future__ import annotations

import inspect
import os
import re
import signal
import sys
import time
import types
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

import repro
from repro.sim.observer import Observer, overridden_hooks
from repro.sim.system import System

#: stack-path key: root-first tuple of frame labels
Path = Tuple[str, ...]

#: CPU seconds between samples asked of ``ITIMER_PROF``; the kernel
#: rounds it up to its tick (4 ms at the common ``HZ=250``)
INTERVAL_S = 0.001

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

#: ``repro`` package -> the layer its frames are labelled with, where
#: the two names differ
_LAYERS = {"sim": "engine", "core": "engine", "config": "engine",
           "workloads": "cpu", "trace": "cpu"}

_REPRO = os.path.dirname(repro.__file__) + os.sep
_SYSTEM_FILE = inspect.getfile(System)

#: a block tag in ``fused.py``: ``# -- [layer.block] what it inlines``
_TAG = re.compile(r"^\s*# -- \[(\w+\.\w+)\]")


def component_of(label: str) -> str:
    """Component bucket of a frame label (``sched.select[TCM]`` etc.)."""
    for prefix, component in _COMPONENT_PREFIXES:
        if label.startswith(prefix):
            return component
    return "other"


@lru_cache(maxsize=None)
def fused_tags() -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
    """Line numbers and labels of ``fused.py``'s block tags, in source
    order; a block runs from its tag to the next one."""
    from repro.sim import fused

    lines, _ = inspect.getsourcelines(fused)
    tags = [(number, match.group(1))
            for number, line in enumerate(lines, start=1)
            if (match := _TAG.match(line))]
    return tuple(n for n, _ in tags), tuple(label for _, label in tags)


def _nested(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested(const)


@lru_cache(maxsize=None)
def _fused_codes() -> FrozenSet[int]:
    """Ids of ``advance_fused``'s code and its closures' code (a code
    object's own hash reads all of its bytecode)."""
    from repro.sim.fused import advance_fused

    return frozenset(map(id, _nested(advance_fused.__code__)))


def fused_label(lineno: int) -> str:
    """The tag of the ``fused.py`` block holding line ``lineno``."""
    lines, labels = fused_tags()
    return labels[max(0, bisect_right(lines, lineno) - 1)]


@dataclass
class ProfileNode:
    """Aggregated cost of one stack path: the samples that landed in it
    or below it, and the seconds they stand for."""

    path: Path
    inclusive_s: float
    samples: int


@dataclass
class ProfileReport:
    """A finished profile: per-path inclusive times plus run metadata.

    ``nodes`` maps root-first stack paths to inclusive seconds and
    sample counts; each sample stands for an equal share of the run's
    wall time.  Self time of a path is its inclusive time minus the
    inclusive time of its direct children; component shares are the
    per-bucket sums of self time over the root's inclusive time, so
    they sum to 1.0 by construction.
    """

    nodes: Dict[Path, ProfileNode] = field(default_factory=dict)
    #: samples the run took
    samples: int = 0
    #: engine metadata recorded by the profiler's begin/end hooks
    wall_s: float = 0.0
    cycles: int = 0
    events: int = 0
    requests: int = 0
    scheduler: str = ""
    workload: str = ""

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
    """Sampling wall-time profiler for one simulated run.

    Usage::

        profiler = Profiler()
        system = System(workload, scheduler, config)
        profiler.attach(system)
        try:
            system.run()
        finally:
            report = profiler.detach()

    Or in one call: :func:`profile_run`.  The timer runs from the
    profiler's ``begin`` hook to its ``end`` hook; ``end`` and
    :meth:`detach` each stop it and restore the ``SIGPROF`` handler and
    timer that were set before, so detach after a run that raised.
    """

    name = "prof"

    def __init__(self):
        self._system = None
        self._counts: Dict[Path, int] = {}
        #: (SIGPROF handler, ITIMER_PROF setting) before begin, while
        #: the timer runs
        self._saved = None
        self._run_t0 = 0.0
        self._events_at_start = 0
        self._report = ProfileReport()
        #: id of an observer hook's code -> its label (set at begin, as
        #: are the policy's files and name)
        self._hooks: Dict[int, str] = {}
        self._policy_files: FrozenSet[str] = frozenset()
        self._policy = ""
        #: (id of a fused-loop code, instruction offset) -> its block's
        #: tag: a live frame's ``f_lineno`` scans the line table each time
        self._blocks: Dict[Tuple[int, int], str] = {}

    # -- lifecycle ------------------------------------------------------

    def attach(self, system) -> "Profiler":
        """Attach as an observer; call before ``system.run()``."""
        if self._system is not None:
            raise RuntimeError("profiler already attached")
        system.attach(self)
        self._system = system
        return self

    def detach(self) -> ProfileReport:
        """Stop sampling, leave the system and return the finished
        report."""
        if self._system is None:
            raise RuntimeError("profiler not attached")
        self._stop()
        self._system.detach(self)
        self._system = None
        report = self._report
        inclusive: Dict[Path, int] = {}
        for path, count in self._counts.items():
            for depth in range(1, len(path) + 1):
                prefix = path[:depth]
                inclusive[prefix] = inclusive.get(prefix, 0) + count
        report.samples = sum(self._counts.values())
        per_sample = report.wall_s / report.samples if report.samples else 0.0
        report.nodes = {
            path: ProfileNode(path, count * per_sample, count)
            for path, count in inclusive.items()
        }
        return report

    def _stop(self) -> None:
        """Stop the timer and put back what it replaced (idempotent)."""
        if self._saved is None:
            return
        handler, timer = self._saved
        self._saved = None
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF,
                      signal.SIG_DFL if handler is None else handler)
        self._report.wall_s += time.perf_counter() - self._run_t0

    # -- observer hooks -------------------------------------------------

    def begin(self, system) -> None:
        self._hooks = {}
        for observer in system.observers:
            if observer is self:
                continue
            for hook in overridden_hooks(observer):
                method = getattr(observer, hook)
                code = getattr(getattr(method, "__func__", method),
                               "__code__", None)
                if code is not None:
                    self._hooks[id(code)] = (f"obs.{observer.name}."
                                             f"{hook.removeprefix('on_')}")
        policy = type(system.scheduler)
        self._policy_files = frozenset(
            inspect.getfile(cls) for cls in policy.__mro__
            if cls is not object
        )
        self._policy = system.scheduler.name
        self._report.scheduler = system.scheduler.name
        self._report.workload = system.workload.name
        self._events_at_start = system._seq
        handler = signal.signal(signal.SIGPROF, self._sample)
        self._run_t0 = time.perf_counter()
        timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._saved = (handler, timer)

    def end(self, system, horizon: int) -> None:
        self._stop()
        self._report.cycles = horizon
        self._report.events += system._seq - self._events_at_start
        self._report.requests = sum(
            ch.serviced_requests for ch in system.channels
        )

    # -- sampling -------------------------------------------------------

    def _sample(self, signum, frame) -> None:
        """The SIGPROF handler: count one sample against the path of the
        interrupted stack.  Reads frames only."""
        path = self.path_of(frame)
        self._counts[path] = self._counts.get(path, 0) + 1

    def path_of(self, frame) -> Path:
        """Root-first labels of ``frame``'s stack, as a sample taken in
        it counts them (see the module docstring)."""
        # the run's frames: out to the outermost System frame
        stack, root = [], 0
        while frame is not None:
            stack.append(frame)
            if frame.f_code.co_filename == _SYSTEM_FILE:
                root = len(stack)
            frame = frame.f_back
        path = ["run"]
        in_policy = False
        fused = _fused_codes()
        for frame in reversed(stack[:root]):
            code = frame.f_code
            hook = self._hooks.get(id(code))
            if hook is not None:
                path.append(hook)
                break
            filename = code.co_filename
            name = code.co_name.strip("_")
            if filename in self._policy_files or (
                    in_policy and filename.startswith(_REPRO)):
                in_policy = True
                path.append(f"sched.{name}[{self._policy}]")
                continue
            if not filename.startswith(_REPRO):
                continue
            if id(code) in fused:
                key = (id(code), frame.f_lasti)
                block = self._blocks.get(key)
                if block is None:
                    block = self._blocks[key] = fused_label(
                        frame.f_lineno or code.co_firstlineno)
                path.append(block)
                continue
            if filename == _SYSTEM_FILE and name == "run":
                continue
            package = filename[len(_REPRO):].split(os.sep, 1)[0]
            package = package.removesuffix(".py")
            path.append(f"{_LAYERS.get(package, package)}.{name}")
            if package == "telemetry":
                break
        return tuple(path)


def attach_profiler(system) -> Profiler:
    """Attach a fresh :class:`Profiler` to a built system."""
    return Profiler().attach(system)


def profile_run(
    workload,
    scheduler_name: str,
    config=None,
    seed: int = 0,
    telemetry=None,
    params=None,
):
    """Run one workload under one scheduler with the profiler attached.

    Returns ``(RunResult, ProfileReport)``.  The simulated outcome is
    bit-identical to an unprofiled run (covered by ``tests/prof``).
    """
    from repro.config import SimConfig
    from repro.schedulers import make_scheduler

    config = config or SimConfig()
    system = System(
        workload, make_scheduler(scheduler_name, params), config,
        seed=seed, telemetry=telemetry,
    )
    profiler = attach_profiler(system)
    try:
        result = system.run()
    finally:
        report = profiler.detach()
    return result, report


def py_calls_per_request(system, limit: int) -> float:
    """Python frames entered per request granted while
    ``system.advance(limit)`` runs.

    A frame is a ``"call"`` event of :func:`sys.setprofile`: a Python
    function, comprehension or generator resumption (C calls are not
    counted).  The count follows the code path alone, so for a given
    Python version it is the same on any host, unlike a timing: a frame
    added to the per-request path shows on a noisy machine too.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    granted = system.sched_decisions
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        system.advance(limit)
    finally:
        sys.setprofile(previous)
    return calls / (system.sched_decisions - granted)
