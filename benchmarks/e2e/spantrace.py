"""Span tracer for the end-to-end benchmark's per-layer run.

The tracer instruments the simulator from outside: it wraps the public
methods of live instances and module functions, records one span per
call (name, start, end, parent) and tallies calls and self time per
span name.  A layer's self time is its spans' time minus the time of
their child spans, so the self times of all layers add up to the root
span exactly; whatever no wrapped method covers stays with the root,
which belongs to the ``sim`` layer.

Layers are the repository's modules: ``sim``, ``cpu``, ``dram``,
``schedulers``, ``core``, ``workloads``, ``experiments``, ``campaign``,
``telemetry``, ``obs``, ``explain`` and ``diverge``.  Only methods that
exist are wrapped, so a refactor that removes a class reads as zero
calls for that layer rather than a crash.

Totals count every call.  Span records, which go to a Chrome-trace file
that Perfetto opens, keep every span of the coarse layers but only the
first :data:`MAX_FINE_SPANS` spans of the per-request layers, so a
traced pass stays within memory.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS = (
    "sim", "cpu", "dram", "schedulers", "core", "workloads", "experiments",
    "campaign", "telemetry", "obs", "explain", "diverge",
)

#: Layers whose calls are few enough to record every span.
COARSE_LAYERS = frozenset({"sim", "workloads", "experiments", "campaign"})

MAX_FINE_SPANS = 100_000

THREAD_METHODS = ("try_issue", "issue_gap", "on_request_completed", "finalize")
PREFETCH_METHODS = ("observe", "consume", "try_merge", "fill")
CHANNEL_METHODS = ("enqueue", "start_service")
CHANNEL_WRITE_METHODS = ("enqueue_write", "next_write_for",
                         "start_write_service")
SCHEDULER_METHODS = ("select", "on_request_arrival", "on_request_scheduled",
                     "on_request_complete", "on_quantum", "on_timer")
MONITOR_METHODS = ("on_request_arrival", "on_request_service",
                   "on_request_complete")
#: Policy functions TCM calls by their module-global names.
TCM_FUNCTIONS = ("cluster_threads", "compute_niceness", "should_use_insertion")
RUNNER_FUNCTIONS = ("alone_ipc", "run_shared", "score_run")
STORE_METHODS = ("get", "put", "flush_index")
SPAN_METHODS = ("on_arrival", "on_scheduled", "on_write_scheduled",
                "on_complete")
EXPLAIN_METHODS = ("on_arrival", "on_decision", "on_grant", "on_complete",
                   "on_quantum", "on_shadow_timer")
PROBE_METHODS = ("on_event", "on_decision")


class SpanTracer:
    """Records spans of wrapped calls and restores every patch on exit."""

    def __init__(self):
        #: span name -> [calls, self seconds, inclusive seconds]
        self.stats: Dict[str, List] = {}
        #: named counts taken at span boundaries (hits, blocked issues...)
        self.counters: Dict[str, int] = defaultdict(int)
        #: (id, parent id, name, start, end)
        self.spans: List[tuple] = []
        self.fine_spans = 0
        self.fine_dropped = 0
        # frames are [child seconds, span id, name]; the root frame is
        # pushed by ``run`` and never popped by a wrapper
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self.origin = 0.0
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``hook(args, result)`` runs after."""
        stack = self._stack
        clock = time.perf_counter
        ids = self._ids
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        coarse = name.split(".", 1)[0] in COARSE_LAYERS

        def wrapper(*args, **kwargs):
            frame = [0.0, next(ids), name]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[2] += duration
                parent[0] += duration
                if coarse:
                    spans.append((frame[1], parent[1], name, start, end))
                elif self.fine_spans < MAX_FINE_SPANS:
                    self.fine_spans += 1
                    spans.append((frame[1], parent[1], name, start, end))
                else:
                    self.fine_dropped += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str,
              hook: Optional[Callable] = None, restore: bool = True) -> bool:
        """Replace ``owner.attr`` by a traced wrapper if it is callable.

        Returns False, and changes nothing, when the attribute does not
        exist.  :meth:`restore` undoes the patch unless ``restore`` is
        False, which suits instances that live only inside the traced
        region (keeping them listed would keep them alive).
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = self.wrap(name, original, hook)
        if restore:
            self._replace(owner, attr, wrapper)
        else:
            setattr(owner, attr, wrapper)
        return True

    def _replace(self, owner, attr: str, value) -> None:
        namespace = vars(owner)
        self._patches.append((owner, attr, attr in namespace,
                              namespace.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own, saved = self._patches.pop()
            if own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self._stack[-1][2] if self._stack else None

    # ------------------------------------------------------------------
    # instrumentation of the repository's layers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Patch the classes and module functions every traced run uses.

        ``System.run`` is wrapped at class level so that systems built
        anywhere (the campaign's alone and shared runs included) get
        their components instrumented when they start.
        """
        system_cls = importlib.import_module("repro.sim.system").System
        tracer = self
        traced_run = self.wrap("sim.System.run", system_cls.run)

        def run(system, *args, **kwargs):
            if tracer.current() == "experiments.alone_ipc":
                tracer.count("experiments.alone_sims")
            tracer.instrument_system(system)
            return traced_run(system, *args, **kwargs)

        self._replace(system_cls, "run", run)

        tcm = importlib.import_module("repro.core.tcm")
        for fn in TCM_FUNCTIONS:
            self.patch(tcm, fn, f"core.{fn}")
        runner = importlib.import_module("repro.experiments.runner")
        for fn in RUNNER_FUNCTIONS:
            self.patch(runner, fn, f"experiments.{fn}")
        # the public name and the one the campaign presets call
        for module in ("repro.workloads", "repro.campaign.plan"):
            self.patch(importlib.import_module(module), "make_workload_suite",
                       "workloads.make_workload_suite")

    def instrument_system(self, system) -> None:
        """Wrap the per-request methods of one live system's components."""
        count = self.count

        def issue_hook(args, result):
            if result is None:
                count("cpu.issue_blocked")

        def prefetch_hit_hook(args, result):
            if result:
                count("cpu.prefetch_hits")

        def service_hook(args, result):
            if result[0].is_row_hit:
                count("dram.row_hits")

        def select_hook(args, result):
            channel, bank_id = args[0], args[1]
            count("schedulers.queue_depth", len(channel.queues[bank_id]))

        hooks = {"try_issue": issue_hook, "consume": prefetch_hit_hook,
                 "try_merge": prefetch_hit_hook,
                 "start_service": service_hook, "select": select_hook}
        groups = [
            (getattr(system, "threads", None) or (), THREAD_METHODS, "cpu"),
            (getattr(system, "prefetchers", None) or (), PREFETCH_METHODS,
             "cpu.prefetch"),
            (getattr(system, "channels", None) or (), CHANNEL_METHODS,
             "dram"),
            (getattr(system, "channels", None) or (), CHANNEL_WRITE_METHODS,
             "dram.write"),
            ([getattr(system, "scheduler", None)], SCHEDULER_METHODS,
             "schedulers"),
            ([getattr(system, "monitor", None)], MONITOR_METHODS, "core"),
            ([getattr(system, "meta", None)], ("end_quantum",), "core"),
        ]
        for objects, methods, prefix in groups:
            for obj in objects:
                if obj is None:
                    continue
                for method in methods:
                    self.patch(obj, method, f"{prefix}.{method}",
                               hooks.get(method), restore=False)

    def instrument_observers(self, telemetry=None, explain=None,
                             probe=None) -> None:
        """Wrap the hooks of the observers attached to an observed run."""
        groups = []
        if telemetry is not None:
            groups += [(telemetry.tracer, ("emit",), "telemetry"),
                       (telemetry.sampler, ("sample",), "telemetry"),
                       (getattr(telemetry, "spans", None), SPAN_METHODS,
                        "obs")]
        groups += [(explain, EXPLAIN_METHODS, "explain"),
                   (probe, PROBE_METHODS, "diverge")]
        for obj, methods, layer in groups:
            if obj is not None:
                for method in methods:
                    self.patch(obj, method, f"{layer}.{method}",
                               restore=False)

    def instrument_store(self, store) -> None:
        for method in STORE_METHODS:
            self.patch(store, method, f"campaign.store.{method}")

    # ------------------------------------------------------------------
    # the traced region
    # ------------------------------------------------------------------

    def run(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` traced, as the root span of layer ``sim``.

        ``fn`` receives this tracer as its first argument so it can
        instrument the objects it creates.  Every patch is undone when
        ``fn`` returns; ``wall_s`` is the root span's duration.
        """
        root = [0.0, 0, "sim.root"]
        self._stack.append(root)
        self.origin = start = time.perf_counter()
        try:
            self.install()
            return fn(self, *args, **kwargs)
        finally:
            end = time.perf_counter()
            self.restore()
            self._stack.pop()
            self.wall_s = end - start
            stat = self.stats.setdefault("sim.root", [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += self.wall_s - root[0]
            stat[2] += self.wall_s
            self.spans.append((0, -1, "sim.root", start, end))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return sum(s[0] for n, s in self.stats.items()
                   if n == prefix or n.startswith(prefix + "."))

    def self_s(self, prefix: str) -> float:
        return sum(s[1] for n, s in self.stats.items()
                   if n == prefix or n.startswith(prefix + "."))

    def inclusive_s(self, name: str) -> float:
        """Total duration of the spans named ``name``, children included."""
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_table(self) -> Dict[str, dict]:
        total = self.wall_s or 1.0
        table = {}
        for layer in LAYERS:
            self_s = self.self_s(layer)
            table[layer] = {"calls": self.calls(layer), "self_s": self_s,
                            "share": self_s / total}
        return table

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the recorded spans in Chrome trace-event format."""
        events = [
            {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
             "ts": (start - self.origin) * 1e6,
             "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
             "args": {"id": span_id, "parent": parent}}
            for span_id, parent, name, start, end in self.spans
        ]
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        meta = dict(metadata, fine_spans_dropped=self.fine_dropped)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "otherData": meta}))

    def layers_report(self) -> dict:
        return {
            "traced_wall_s": self.wall_s,
            "layers": self.layer_table(),
            "spans": {n: {"calls": s[0], "self_s": s[1], "inclusive_s": s[2]}
                      for n, s in sorted(self.stats.items())},
            "counters": dict(self.counters),
            "fine_spans_recorded": self.fine_spans,
            "fine_spans_dropped": self.fine_dropped,
        }
