"""The campaign execution engine.

Takes a :class:`~repro.campaign.plan.CampaignPlan`, shards its points
across a pool of worker processes, and streams results into a
:class:`~repro.campaign.store.CampaignStore`.  Properties:

* **resumable** — points whose key is already in the store (as a
  successful ``point`` record) are skipped; killing a campaign and
  relaunching it never recomputes finished work.
* **fault-tolerant** — each point gets a wall-clock timeout and a
  bounded number of retries with exponential backoff; a worker that
  hangs is killed and respawned; a point that exhausts its retries is
  recorded in the store as a ``failure`` (with traceback) and the
  campaign carries on.
* **observable** — a :class:`~repro.campaign.progress.ProgressTracker`
  exposes live throughput/ETA/per-worker state, and the returned
  :class:`CampaignReport` summarises the run.
* **deterministic** — a point's result depends only on its content
  (workload, scheduler, params, config, seed), never on which worker
  ran it or in what order; ``workers=1`` (inline, no subprocesses) and
  ``workers=N`` produce identical metrics.

Workers never touch the store: the engine passes known alone-run IPCs
to workers as cache hints and persists the artifacts workers return.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.hashing import alone_key, canonicalize
from repro.campaign.plan import CampaignPlan, CampaignPoint
from repro.campaign.progress import (
    BUSY,
    DEAD,
    IDLE,
    ProgressTracker,
)
from repro.campaign.store import (
    KIND_ALONE,
    KIND_FAILURE,
    KIND_POINT,
    KIND_SUMMARY,
    CampaignStore,
)
from repro.telemetry.log import get_logger

_LOG = get_logger("campaign")

#: Statuses a point can end a campaign with.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


class CampaignError(RuntimeError):
    """Raised by :func:`run_points` when a point fails permanently."""


class CampaignInterrupted(KeyboardInterrupt):
    """The campaign was stopped by SIGINT/SIGTERM after a clean flush.

    By the time this propagates, every finished point is in the store,
    the summary record and sidecar index are written, and the worker
    pool is shut down — relaunching the same plan resumes from the
    store instead of recomputing.  ``report`` covers the points that
    resolved before the interrupt.
    """

    def __init__(self, plan_name: str, report: "CampaignReport") -> None:
        super().__init__(
            f"campaign {plan_name} interrupted "
            f"({len(report.results)} points resolved; store flushed, "
            f"rerun to resume)"
        )
        self.plan_name = plan_name
        self.report = report


@dataclass(frozen=True)
class PointResult:
    """Final outcome of one campaign point."""

    key: str
    point: CampaignPoint
    status: str
    payload: Optional[dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)

    @property
    def metrics(self) -> dict:
        """{"ws": ..., "ms": ..., "hs": ...} (raises if failed)."""
        if self.payload is None:
            raise CampaignError(
                f"point {self.key} has no result ({self.error})"
            )
        return self.payload["metrics"]

    @property
    def weighted_speedup(self) -> float:
        return self.metrics["ws"]

    @property
    def maximum_slowdown(self) -> float:
        return self.metrics["ms"]

    @property
    def harmonic_speedup(self) -> float:
        return self.metrics["hs"]

    @property
    def threads(self) -> List[dict]:
        """Per-thread [{"benchmark", "ipc", "alone_ipc"}, ...]."""
        if self.payload is None:
            raise CampaignError(
                f"point {self.key} has no result ({self.error})"
            )
        return self.payload["threads"]


@dataclass
class CampaignReport:
    """End-of-campaign summary returned by :func:`execute_plan`."""

    plan_name: str
    results: List[PointResult] = field(default_factory=list)
    elapsed: float = 0.0
    summary: str = ""

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_OK)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_CACHED)

    @property
    def failed(self) -> List[PointResult]:
        return [r for r in self.results if r.status == STATUS_FAILED]

    def raise_failures(self) -> None:
        """Raise :class:`CampaignError` if any point failed."""
        failures = self.failed
        if failures:
            first = failures[0]
            raise CampaignError(
                f"{len(failures)} of {len(self.results)} campaign points "
                f"failed; first: {first.point.workload.name} / "
                f"{first.point.scheduler} -> {first.error}\n"
                f"{first.traceback or ''}"
            )


# ----------------------------------------------------------------------
# point execution (runs in workers and inline)
# ----------------------------------------------------------------------


def _execute_task(task: dict) -> dict:
    """Execute one task; pure function of the task dict.

    Two task kinds exist:

    * ``alone`` — compute one benchmark's alone-run IPC.  The engine
      schedules these *before* the points that need them, so the
      expensive alone runs are computed exactly once campaign-wide
      (they are the shared artifacts the store caches forever).
    * ``point`` — simulate and score one (workload, scheduler) point.
      The task carries ``alone_hints`` — already-known alone IPCs that
      are primed into the process-local cache so the worker never
      recomputes them.

    Either way the worker returns the result payload plus any *newly*
    computed alone artifacts for the engine to persist.
    """
    from repro.experiments import runner
    from repro.workloads.spec import BenchmarkSpec

    if task["kind"] == "alone":
        from repro.campaign.plan import config_from_dict

        spec = BenchmarkSpec(**task["spec"])
        config = config_from_dict(task["config"])
        ipc = runner.alone_ipc(spec, config, task["seed"])
        return {
            "payload": None,
            "alone": [
                {"key": task["key"], "spec": task["spec"],
                 "seed": task["seed"], "ipc": ipc}
            ],
        }

    point = CampaignPoint.from_dict(task["point"])
    telemetry = None
    trace_path = None
    trace = task.get("trace")
    if trace is not None:
        import os as _os

        from repro.telemetry import Telemetry

        _os.makedirs(trace["dir"], exist_ok=True)
        trace_path = _os.path.join(trace["dir"], f"{task['key']}.jsonl")
        telemetry = Telemetry.tracing(
            jsonl_path=trace_path,
            epoch_cycles=trace.get("epoch_cycles"),
        )
    for hint in task.get("alone_hints", []):
        runner.prime_alone_cache(
            BenchmarkSpec(**hint["spec"]), point.config, point.seed,
            hint["ipc"],
        )
    known = {h["key"] for h in task.get("alone_hints", [])}

    new_alone: List[dict] = []
    alones: List[float] = []
    for spec in point.workload.specs:
        ipc = runner.alone_ipc(spec, point.config, point.seed)
        alones.append(ipc)
        k = alone_key(spec, point.config, point.seed)
        if k not in known:
            known.add(k)
            new_alone.append(
                {
                    "key": k,
                    "spec": canonicalize(spec),
                    "seed": point.seed,
                    "ipc": ipc,
                }
            )

    result = runner.run_shared(
        point.workload, point.scheduler, point.config, point.params,
        point.seed, telemetry=telemetry,
    )
    if telemetry is not None:
        telemetry.close()
    score = runner.score_run(result, point.workload, point.config,
                             point.seed)
    payload = {
        "metrics": {
            "ws": score.weighted_speedup,
            "ms": score.maximum_slowdown,
            "hs": score.harmonic_speedup,
        },
        "threads": [
            {"benchmark": t.benchmark, "ipc": t.ipc, "alone_ipc": alone}
            for t, alone in zip(result.threads, alones)
        ],
        "summary": result.summary(),
    }
    if telemetry is not None:
        payload["telemetry"] = {**telemetry.summary(), "trace": trace_path}
    return {"payload": payload, "alone": new_alone}


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker process loop: execute tasks until the ``None`` sentinel."""
    # A Ctrl-C lands on the whole foreground process group; workers
    # ignore it so the engine alone decides how to wind the pool down
    # (no stack-trace spray from N child processes).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:
        pass  # not the process main thread (inline test harnesses)
    while True:
        task = task_q.get()
        if task is None:
            break
        t0 = time.monotonic()
        base = {
            "worker": worker_id,
            "key": task["key"],
            "attempt": task["attempt"],
        }
        try:
            out = _execute_task(task)
            result_q.put(
                {**base, "ok": True, "duration": time.monotonic() - t0,
                 **out}
            )
        except Exception as exc:  # never let a point kill the worker
            result_q.put(
                {
                    **base,
                    "ok": False,
                    "duration": time.monotonic() - t0,
                    "error": repr(exc),
                    "traceback": traceback.format_exc(),
                }
            )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


@dataclass
class _Task:
    """Engine-side state of one unique pending work unit.

    ``kind`` is ``"point"`` (a plan point; ``point`` is set) or
    ``"alone"`` (a shared alone-run artifact; ``data`` carries the
    spec/config/seed as plain dicts).
    """

    key: str
    kind: str = "point"
    point: Optional[CampaignPoint] = None
    data: Optional[dict] = None
    attempts: int = 0
    not_before: float = 0.0
    last_error: Optional[str] = None
    last_traceback: Optional[str] = None

    @property
    def label(self) -> str:
        if self.kind == "alone":
            return f"alone:{self.data['spec']['name']}"
        return f"{self.point.workload.name}/{self.point.scheduler}"


class _WorkerHandle:
    """One managed worker process with a private task queue."""

    def __init__(self, ctx, worker_id: int, result_q) -> None:
        self.id = worker_id
        self.ctx = ctx
        self.result_q = result_q
        self.task: Optional[_Task] = None
        self.deadline: float = float("inf")
        self._spawn()

    def _spawn(self) -> None:
        self.task_q = self.ctx.Queue(maxsize=1)
        self.proc = self.ctx.Process(
            target=_worker_main,
            args=(self.id, self.task_q, self.result_q),
            daemon=True,
            name=f"campaign-worker-{self.id}",
        )
        self.proc.start()

    @property
    def idle(self) -> bool:
        return self.task is None

    def dispatch(self, task: _Task, payload: dict,
                 timeout: Optional[float]) -> None:
        self.task = task
        self.deadline = (
            time.monotonic() + timeout if timeout else float("inf")
        )
        self.task_q.put(payload)

    def release(self) -> None:
        self.task = None
        self.deadline = float("inf")

    def respawn(self) -> None:
        """Kill a hung/dead worker and start a fresh process."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)
        self.task_q.close()
        self.release()
        self._spawn()

    def shutdown(self) -> None:
        try:
            self.task_q.put_nowait(None)
        except queue_mod.Full:
            pass
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)


def _default_context(start_method: Optional[str]):
    if start_method is None:
        start_method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
    return mp.get_context(start_method)


class _Persister:
    """Streams results and alone artifacts into the store (if any)."""

    def __init__(self, store: Optional[CampaignStore]) -> None:
        self.store = store
        #: alone-run IPCs known this campaign: key -> hint dict.
        self.alone: Dict[str, dict] = {}
        if store is not None:
            for k in store.keys(KIND_ALONE):
                record = store.get(k)
                self.alone[k] = {
                    "key": k,
                    "spec": record["meta"]["spec"],
                    "seed": record["meta"]["seed"],
                    "ipc": record["payload"]["ipc"],
                }

    def hints_for(self, point: CampaignPoint) -> List[dict]:
        hints = []
        for spec in point.workload.specs:
            k = alone_key(spec, point.config, point.seed)
            hint = self.alone.get(k)
            if hint is not None and hint["seed"] == point.seed:
                hints.append(hint)
        return hints

    def absorb_alone(self, records: Sequence[dict]) -> None:
        for rec in records:
            if rec["key"] in self.alone:
                continue
            self.alone[rec["key"]] = rec
            if self.store is not None:
                self.store.put(
                    rec["key"], KIND_ALONE, {"ipc": rec["ipc"]},
                    meta={"spec": rec["spec"], "seed": rec["seed"],
                          "benchmark": rec["spec"]["name"]},
                )

    def record_success(self, task: _Task, payload: dict,
                       duration: float) -> None:
        if self.store is not None:
            self.store.put(
                task.key, KIND_POINT, payload,
                meta={
                    "workload": task.point.workload.name,
                    "scheduler": task.point.scheduler,
                    "seed": task.point.seed,
                    "tag": task.point.tag,
                    "attempts": task.attempts,
                    "duration": duration,
                },
            )

    def record_failure(self, task: _Task) -> None:
        if self.store is not None:
            self.store.put(
                task.key, KIND_FAILURE,
                {
                    "error": task.last_error,
                    "traceback": task.last_traceback,
                    "attempts": task.attempts,
                },
                meta={
                    "workload": task.point.workload.name,
                    "scheduler": task.point.scheduler,
                    "seed": task.point.seed,
                    "tag": task.point.tag,
                },
            )


def execute_plan(
    plan: CampaignPlan,
    store: Union[CampaignStore, str, None] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.5,
    force: bool = False,
    progress: bool = False,
    progress_stream=None,
    start_method: Optional[str] = None,
    poll_interval: float = 0.1,
    trace_dir: Optional[str] = None,
    trace_epoch_cycles: Optional[int] = None,
) -> CampaignReport:
    """Run a campaign plan and return its report.

    Args:
        plan: the points to run.  Duplicate keys are executed once and
            their result shared across all duplicate plan entries.
        store: a :class:`CampaignStore`, a directory path to open one
            in, or None for a store-less (in-memory) campaign.
        workers: process count.  ``<= 1`` executes inline in this
            process (no subprocesses, timeout not enforced) — useful
            for tests and as the deterministic reference path.
        timeout: per-point wall-clock seconds before the worker is
            killed and the attempt counts as failed (pool mode only).
        retries: extra attempts after the first failure; the point is
            recorded as failed once ``1 + retries`` attempts have been
            spent.
        backoff: base seconds of exponential backoff between attempts.
        force: re-run points even if the store already has them.
        progress: emit live status lines (and the final report) to
            ``progress_stream`` (default stderr).
        trace_dir: when set, every executed point runs traced and
            writes ``<trace_dir>/<point key>.jsonl``; point payloads
            gain a ``"telemetry"`` digest (event counts, epochs, row
            hit rate, trace path).  Tracing observes the simulation
            without perturbing it, so results stay byte-identical to
            an untraced campaign.
        trace_epoch_cycles: epoch-sampler period for traced points
            (default: the config's quantum length).
    """
    owns_store = isinstance(store, (str, bytes)) or hasattr(store, "__fspath__")
    if owns_store:
        store = CampaignStore(store)
    stream = progress_stream if progress_stream is not None else sys.stderr
    tracker = ProgressTracker(len(plan), name=plan.name)
    started = time.monotonic()
    _LOG.info(
        "campaign %s: %d points, workers=%d%s",
        plan.name, len(plan), workers,
        f", tracing to {trace_dir}" if trace_dir else "",
    )

    persister = _Persister(store)
    resolved: Dict[str, PointResult] = {}
    pending: List[_Task] = []
    seen = set()
    for point in plan:
        key = point.key
        if key in seen:
            continue
        seen.add(key)
        cached = None
        if store is not None and not force and store.kind(key) == KIND_POINT:
            cached = store.get(key)
        if cached is not None:
            resolved[key] = PointResult(
                key=key, point=point, status=STATUS_CACHED,
                payload=cached["payload"],
                attempts=0,
            )
        else:
            pending.append(_Task(key=key, point=point))
    for point in plan:
        hit = resolved.get(point.key)
        if hit is not None and hit.status == STATUS_CACHED:
            tracker.point_cached()

    # Schedule the shared alone-run artifacts the pending points will
    # need but the store doesn't have yet.  They run *before* the
    # points (FIFO), so each alone IPC is computed exactly once
    # campaign-wide instead of once per (workload, scheduler) point.
    alone_tasks: List[_Task] = []
    for task in pending:
        for spec in task.point.workload.specs:
            k = alone_key(spec, task.point.config, task.point.seed)
            if k in persister.alone or k in seen:
                continue
            seen.add(k)
            alone_tasks.append(
                _Task(
                    key=k, kind="alone",
                    data={
                        "spec": canonicalize(spec),
                        "seed": task.point.seed,
                        "config": canonicalize(task.point.config),
                    },
                )
            )
    pending = alone_tasks + pending

    def task_payload(task: _Task) -> dict:
        if task.kind == "alone":
            return {"kind": "alone", "key": task.key,
                    "attempt": task.attempts + 1, **task.data}
        payload = {
            "kind": "point",
            "key": task.key,
            "attempt": task.attempts + 1,
            "point": task.point.to_dict(),
            "alone_hints": persister.hints_for(task.point),
        }
        if trace_dir is not None:
            payload["trace"] = {
                "dir": str(trace_dir),
                "epoch_cycles": trace_epoch_cycles,
            }
        return payload

    def handle_success(task: _Task, payload: Optional[dict],
                       alone: Sequence[dict], duration: float) -> None:
        task.attempts += 1
        persister.absorb_alone(alone)
        if task.kind == "alone":
            tracker.artifact_done()
            return
        persister.record_success(task, payload, duration)
        resolved[task.key] = PointResult(
            key=task.key, point=task.point, status=STATUS_OK,
            payload=payload, attempts=task.attempts, duration=duration,
        )
        tracker.point_done()

    def handle_failure(task: _Task, error: str, tb: Optional[str],
                       duration: float) -> bool:
        """Record one failed attempt; True if the task will be retried."""
        task.attempts += 1
        task.last_error = error
        task.last_traceback = tb
        if task.attempts <= retries:
            task.not_before = (
                time.monotonic() + backoff * (2 ** (task.attempts - 1))
            )
            tracker.point_retried()
            _LOG.warning("retrying %s (attempt %d failed: %s)",
                         task.label, task.attempts, error)
            return True
        _LOG.error("%s failed permanently after %d attempts: %s",
                   task.label, task.attempts, error)
        if task.kind == "alone":
            # Not fatal: any point needing this artifact recomputes it
            # and surfaces the real error itself.
            tracker.artifact_failed()
            return False
        persister.record_failure(task)
        resolved[task.key] = PointResult(
            key=task.key, point=task.point, status=STATUS_FAILED,
            error=error, traceback=tb, attempts=task.attempts,
            duration=duration,
        )
        tracker.point_failed()
        return False

    # SIGTERM (scheduler preemption, ``kill``) gets the same graceful
    # path as Ctrl-C: convert it to KeyboardInterrupt so the one
    # interrupt flow below flushes the store before exiting.  Signal
    # handlers only install from the process main thread; elsewhere
    # (worker threads, test harnesses) SIGTERM keeps its previous
    # disposition.
    interrupted = False
    sigterm_prev = None
    sigterm_set = False
    if threading.current_thread() is threading.main_thread():
        def _on_sigterm(signum, frame):
            raise KeyboardInterrupt
        try:
            sigterm_prev = signal.signal(signal.SIGTERM, _on_sigterm)
            sigterm_set = True
        except ValueError:
            pass

    try:
        try:
            if workers <= 1:
                _run_inline(pending, task_payload, handle_success,
                            handle_failure, tracker, progress, stream)
            else:
                _run_pool(pending, task_payload, handle_success,
                          handle_failure, tracker, workers, timeout,
                          start_method, poll_interval, progress, stream)
        except KeyboardInterrupt:
            interrupted = True
            _LOG.warning(
                "campaign %s interrupted; flushing store before exit",
                plan.name,
            )
    finally:
        if sigterm_set:
            signal.signal(signal.SIGTERM, sigterm_prev)
        if store is not None:
            _record_summary(store, plan, tracker, resolved, trace_dir)
            store.flush_index()
        if owns_store:
            store.close()

    if interrupted:
        partial = [
            resolved[p.key] for p in plan if p.key in resolved
        ]
        raise CampaignInterrupted(
            plan.name,
            CampaignReport(
                plan_name=plan.name,
                results=partial,
                elapsed=time.monotonic() - started,
                summary=tracker.report(),
            ),
        )

    results = [resolved[p.key] for p in plan]
    _LOG.info("campaign %s done: %s", plan.name,
              tracker.render())
    return CampaignReport(
        plan_name=plan.name,
        results=results,
        elapsed=time.monotonic() - started,
        summary=tracker.report(),
    )


def _record_summary(store, plan, tracker, resolved, trace_dir) -> None:
    """Persist one campaign-level telemetry digest into the store.

    The record aggregates the tracker's final snapshot with the
    per-point telemetry digests of traced points, so ``telemetry
    report --store`` can show campaign health without re-reading every
    point record.  Keyed by plan name: re-running a campaign replaces
    its summary (the store keeps latest-per-key).
    """
    snapshot = tracker.snapshot()
    snapshot.pop("workers", None)
    traced = [
        r.payload["telemetry"]
        for r in resolved.values()
        if r.payload is not None and "telemetry" in r.payload
    ]
    agg = {}
    if traced:
        agg = {
            "traced_points": len(traced),
            "events": sum(t["events"] for t in traced),
            "epochs": sum(t["epochs"] for t in traced),
            "requests": sum(t.get("requests", 0) for t in traced),
            "mean_row_hit_rate": (
                sum(t.get("row_hit_rate", 0.0) for t in traced)
                / len(traced)
            ),
        }
    store.put(
        f"summary:{plan.name}", KIND_SUMMARY,
        {"progress": snapshot, "telemetry": agg},
        meta={
            "plan": plan.name,
            "trace_dir": str(trace_dir) if trace_dir else None,
        },
    )


def _run_inline(pending, task_payload, handle_success, handle_failure,
                tracker, progress, stream) -> None:
    """Serial in-process execution (the reference path)."""
    for task in pending:
        while True:
            payload = task_payload(task)
            t0 = time.monotonic()
            try:
                out = _execute_task(payload)
            except Exception as exc:
                will_retry = handle_failure(
                    task, repr(exc), traceback.format_exc(),
                    time.monotonic() - t0,
                )
                if will_retry:
                    delay = task.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                break
            handle_success(task, out["payload"], out["alone"],
                           time.monotonic() - t0)
            break
        if progress:
            print(tracker.render(), file=stream)


def _run_pool(pending, task_payload, handle_success, handle_failure,
              tracker, workers, timeout, start_method, poll_interval,
              progress, stream) -> None:
    """Parallel execution across a managed worker pool."""
    ctx = _default_context(start_method)
    result_q = ctx.Queue()
    pool = [
        _WorkerHandle(ctx, i, result_q)
        for i in range(min(workers, max(1, len(pending))))
    ]
    for w in pool:
        tracker.worker_state(w.id, IDLE)

    ready = deque(pending)
    delayed: List[_Task] = []
    in_flight: Dict[str, int] = {}  # key -> current attempt number
    outstanding = len(pending)
    last_render = 0.0

    def dispatch(worker: _WorkerHandle, task: _Task) -> None:
        in_flight[task.key] = task.attempts + 1
        worker.dispatch(task, task_payload(task), timeout)
        tracker.worker_state(worker.id, BUSY, task.label)

    def finish_attempt(task: _Task, error: str, duration: float) -> None:
        """A dispatched attempt ended abnormally (timeout/death)."""
        nonlocal outstanding
        in_flight.pop(task.key, None)
        if handle_failure(task, error, None, duration):
            delayed.append(task)
        else:
            outstanding -= 1

    try:
        while outstanding > 0:
            now = time.monotonic()
            for task in [t for t in delayed if t.not_before <= now]:
                delayed.remove(task)
                ready.append(task)
            for worker in pool:
                if worker.idle and ready:
                    dispatch(worker, ready.popleft())

            try:
                msg = result_q.get(timeout=poll_interval)
            except queue_mod.Empty:
                msg = None

            if msg is not None:
                key, attempt = msg["key"], msg["attempt"]
                worker = next(
                    (w for w in pool
                     if w.task is not None and w.task.key == key), None,
                )
                if worker is None or in_flight.get(key) != attempt:
                    pass  # stale result from a killed/raced attempt
                else:
                    task = worker.task
                    worker.release()
                    tracker.worker_state(worker.id, IDLE)
                    in_flight.pop(key, None)
                    if msg["ok"]:
                        handle_success(task, msg["payload"], msg["alone"],
                                       msg["duration"])
                        outstanding -= 1
                    else:
                        if handle_failure(task, msg["error"],
                                          msg.get("traceback"),
                                          msg["duration"]):
                            delayed.append(task)
                        else:
                            outstanding -= 1

            now = time.monotonic()
            for worker in pool:
                if worker.idle:
                    continue
                if now > worker.deadline:
                    task = worker.task
                    _LOG.warning("worker %d timed out on %s; respawning",
                                 worker.id, task.label)
                    tracker.worker_state(worker.id, DEAD, "timeout")
                    worker.respawn()
                    tracker.worker_state(worker.id, IDLE)
                    finish_attempt(
                        task,
                        f"TimeoutError('point exceeded {timeout}s')",
                        timeout or 0.0,
                    )
                elif not worker.proc.is_alive():
                    task = worker.task
                    exitcode = worker.proc.exitcode
                    _LOG.warning(
                        "worker %d died (exit=%s) on %s; respawning",
                        worker.id, exitcode, task.label,
                    )
                    tracker.worker_state(worker.id, DEAD,
                                         f"exit={exitcode}")
                    worker.respawn()
                    tracker.worker_state(worker.id, IDLE)
                    finish_attempt(
                        task,
                        f"RuntimeError('worker died, exit code "
                        f"{exitcode}')",
                        0.0,
                    )

            if progress and time.monotonic() - last_render > 0.5:
                last_render = time.monotonic()
                end = "\r" if stream.isatty() else "\n"
                print(tracker.render(), file=stream, end=end, flush=True)
    finally:
        for worker in pool:
            worker.shutdown()
        result_q.close()
    if progress and stream.isatty():
        print(file=stream)


# ----------------------------------------------------------------------
# library entry point used by the figure/sweep drivers
# ----------------------------------------------------------------------


def run_points(
    points: Union[CampaignPlan, Sequence[CampaignPoint]],
    workers: Optional[int] = None,
    store: Union[CampaignStore, str, None] = None,
    name: str = "adhoc",
    **engine_kwargs,
) -> List[PointResult]:
    """Execute a plan (or ad-hoc points, named ``name``) through the
    engine; raise on any failure.

    This is the API the figure and sweep drivers use: ``workers=None``
    (or 1) is the exact serial reference path, larger values shard the
    points across processes; results come back in input order either
    way.
    """
    plan = (points if isinstance(points, CampaignPlan)
            else CampaignPlan(name=name, points=tuple(points)))
    report = execute_plan(
        plan, store=store, workers=workers or 1, **engine_kwargs
    )
    report.raise_failures()
    return report.results
