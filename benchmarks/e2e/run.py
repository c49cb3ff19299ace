#!/usr/bin/env python3
"""End-to-end benchmark of the TCM reproduction.

Four workloads, each run in its own fresh process:

* ``sim_core``: 15 shared runs, the five evaluated schedulers each on
  one mix per intensity (50/75/100%), serial and in-process.
* ``sim_rw``: 8 shared runs with writes and prefetching modelled,
  FR-FCFS and TCM on 4 mixes at 100% intensity.
* ``campaign_fig4``: the ``fig4`` campaign preset on a fresh store with
  the alone cache cleared, 2 workers, then 10 warm reruns.
* ``observed``: TCM on 3 mixes at 75% intensity, each run plain and then
  again with telemetry, spans, explain and a state probe attached.

Every simulation uses ``SimConfig()`` defaults (sim_rw switches on
writes and prefetching).  The benchmark checks its outputs: every pass
must reproduce the first pass's digest, an observed run must equal its
plain twin, warm campaign reruns must equal the cold pass, and for seeds
recorded in ``expected.json`` the digest must match the recording.

Host time on a shared host drifts by tens of percent for minutes at a
time.  Each pass therefore also times a fixed pure-Python reference
kernel (between runs, or from a thread during a campaign pass), and the
end-to-end times are host times divided by how much slower than its
reference speed the kernel ran: seconds at the reference host speed.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0          # all four workloads
    python3 benchmarks/e2e/run.py --workload sim_core --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --trace --seed 0  # per-layer metrics
    python3 benchmarks/e2e/run.py --repeat 10       # noise calibration
    python3 benchmarks/e2e/run.py --record-expected

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output was correct.  Details go to ``out/``.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
NOISE_PATH = HERE / "noise.json"

WORKLOADS = ("sim_core", "sim_rw", "campaign_fig4", "observed")
SCHEDULERS = ("frfcfs", "stfm", "parbs", "atlas", "tcm")
CAMPAIGN_WORKERS = 2
WARM_RERUNS = 10
#: seeds whose digests ``expected.json`` records
RECORDED_SEEDS = range(10)
#: set-ups timed per run: this process plus fresh probe processes
SETUP_SAMPLES = 7
#: Seconds of ``--seconds`` per pass: a run makes ``seconds // this``
#: passes (at least one).  The count depends on ``--seconds`` alone,
#: not on how fast the code under test is, so two commits repeat the
#: same work.  A quiet 2-core host does a pass in 8.4 / 6.6 / 12 / 7.4 s.
SECONDS_PER_PASS = {"sim_core": 10.0, "sim_rw": 6.5, "campaign_fig4": 10.0,
                    "observed": 10.0}
SMOKE_CYCLES = 60_000
OBSERVER_LAYERS = ("telemetry", "obs", "explain", "diverge")
#: What :func:`kernel_sample` returns at the reference host speed: its
#: median on a 2-vCPU Xeon guest under Python 3.11.
REFERENCE_KERNEL_S = 0.00245
#: seconds between the host-speed samples taken during a pass
SAMPLE_INTERVAL_S = 0.25
#: A pass's host time grows as the kernel's slowdown to this power: the
#: kernel slows more than the simulator when a co-tenant contends for
#: the CPU.  Fitted to repeated passes of one seed; see the README.
SLOWDOWN_EXPONENT = 0.8


def clean_environment(env) -> Dict[str, str]:
    """``env`` without the variables that change what the program runs."""
    return {k: v for k, v in env.items()
            if k != "REPRO_BACKEND" and not k.startswith("REPRO_BENCH_")}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def reference_kernel(n: int = 3000) -> int:
    """Fixed pure-Python work of the simulator's kind (small objects, a
    heap, a dict) that runs no code of the repository."""
    heap, counts, total = [], {}, 0
    for i in range(n):
        item = _Item(i * 7919 % 1009, i)
        heapq.heappush(heap, (item.key, i, item))
        counts[item.key] = counts.get(item.key, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].value
    return total


def kernel_sample() -> float:
    """CPU seconds of the fastest of three :func:`reference_kernel` calls.

    CPU time of this thread measures how fast the host runs Python code,
    not how much of a CPU this thread gets, so waiting for the GIL or
    for a CPU the campaign's workers hold does not count.
    """
    clock = time.thread_time
    best = math.inf
    for _ in range(3):
        start = clock()
        reference_kernel()
        best = min(best, clock() - start)
    return best


def current_cpu() -> Optional[int]:
    """The CPU this thread last ran on (None where Linux's /proc is not)."""
    try:
        stat = Path("/proc/thread-self/stat").read_text()
    except OSError:
        return None
    # field 39, counted after the parenthesised command name (field 2)
    return int(stat.rsplit(")", 1)[1].split()[36])


def sampled(fn: Callable, measure: bool, pin: bool):
    """``(fn(), kernel samples)``.

    Unless ``measure`` is false, a thread takes a :func:`kernel_sample`
    when ``fn`` starts and then every :data:`SAMPLE_INTERVAL_S` while it
    runs.  Co-tenants slow the host's CPUs unequally, so with ``pin`` this
    thread and the sampler share one CPU while ``fn`` runs and the samples
    see the CPU the work runs on.  (The campaign cannot be pinned: its
    workers would inherit the pin.)
    """
    if not measure:
        return fn(), []
    cpu = current_cpu() if pin else None
    if cpu is not None:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    samples, stop = [], threading.Event()

    def sample():
        samples.append(kernel_sample())
        while not stop.wait(SAMPLE_INTERVAL_S):
            samples.append(kernel_sample())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        return fn(), samples
    finally:
        stop.set()
        thread.join()
        if cpu is not None:
            os.sched_setaffinity(0, allowed)


def slowdown(kernel_s: List[float]) -> float:
    """How much slower than the reference speed the kernel ran."""
    return statistics.mean(kernel_s) / REFERENCE_KERNEL_S


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    #: host seconds of the pass's simulations (campaign: of the pass)
    wall_s: float
    requests: int
    fingerprint: list
    #: host seconds of each run, in input order (observed: plain and
    #: observed alternate); empty where runs are not timed singly
    run_s: List[float] = field(default_factory=list)
    #: :func:`kernel_sample` results taken during the pass
    kernel_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: sum of campaign point durations (for parallel efficiency)
    points_s: float = 0.0

    @property
    def digest(self) -> str:
        return digest(self.fingerprint)

    @property
    def norm_wall_s(self) -> float:
        """``wall_s`` at the reference host speed."""
        return self.wall_s / slowdown(self.kernel_s) ** SLOWDOWN_EXPONENT


def digest(fingerprint: list) -> str:
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sim_config(scale: str):
    from repro import SimConfig

    return SimConfig() if scale == "full" else SimConfig(
        run_cycles=SMOKE_CYCLES)


def make_mixes(intensities, per_category: int, seed: int):
    """Mixes for ``seed``; distinct seeds never share a mix."""
    # looked up at call time so the tracer's wrapper is seen
    import repro.workloads as workloads

    return workloads.make_workload_suite(
        intensities, per_category=per_category,
        base_seed=seed * per_category)


class Simulations:
    """``sim_core`` and ``sim_rw``: every run is a plain ``System.run``."""

    #: sample the host speed during each pass (off for traced runs,
    #: whose time is attributed to layers)
    measure_speed = True

    def __init__(self, name: str, seed: int, scale: str):
        self.name, self.seed, self.scale = name, seed, scale
        #: the traced run's tracer while its traced pass is built and run
        self.tracer = None

    def runs(self):
        """(config, [(mix, scheduler name)]) of one pass."""
        config = sim_config(self.scale)
        if self.name == "sim_core":
            # one mix per (intensity, scheduler): five independent mixes
            # per intensity keep a pass's work steady across seeds
            mixes = make_mixes((0.5, 0.75, 1.0), 5, self.seed)
            return config, [(m, SCHEDULERS[i % 5])
                            for i, m in enumerate(mixes)]
        config = config.with_(model_writes=True, prefetch_degree=2)
        mixes = make_mixes((1.0,), 4, self.seed)
        return config, [(m, s) for m in mixes for s in ("frfcfs", "tcm")]

    def build(self, passes: int) -> list:
        """Every system the passes will run (``System`` runs only once)."""
        from repro import System, make_scheduler

        config, runs = self.runs()
        return [[System(mix, make_scheduler(s), config, seed=self.seed)
                 for mix, s in runs] for _ in range(passes)]

    def run(self, systems: list) -> Pass:
        from repro.validate.fingerprint import fingerprint_run

        results, run_s = [], []
        clock = time.perf_counter

        def run_all():
            while systems:
                system = systems.pop(0)
                gc.collect()  # every run starts from the same heap state
                t = clock()
                results.append(system.run())
                run_s.append(clock() - t)

        _, kernel_s = sampled(run_all, self.measure_speed, pin=True)
        return Pass(sum(run_s), sum(r.total_requests for r in results),
                    [fingerprint_run(r) for r in results], run_s, kernel_s,
                    attempted=len(results))

    def close(self) -> None:
        pass


class Observed(Simulations):
    """TCM runs, each plain and then observed by every instrument."""

    def runs(self):
        mixes = make_mixes((0.75,), 3, self.seed)
        return sim_config(self.scale), [(m, "tcm") for m in mixes]

    def build(self, passes: int) -> list:
        from repro import System, make_scheduler
        from repro.diverge import StateProbe
        from repro.explain import attach_explain
        from repro.telemetry import Telemetry

        config, runs = self.runs()
        built = []
        for _ in range(passes):
            pairs = []
            for mix, s in runs:
                plain = System(mix, make_scheduler(s), config, seed=self.seed)
                telemetry = Telemetry.observing()
                observed = System(mix, make_scheduler(s), config,
                                  seed=self.seed, telemetry=telemetry)
                explain = attach_explain(observed, shadows=("frfcfs",))
                probe = StateProbe().attach(observed)
                if self.tracer is not None:
                    self.tracer.instrument_observers(telemetry, explain, probe)
                pairs.append((plain, observed))
            built.append(pairs)
        return built

    def run(self, pairs: list) -> Pass:
        from repro.validate.fingerprint import fingerprint_run

        results, run_s = [], []
        clock = time.perf_counter

        def run_all():
            mismatches = 0
            while pairs:
                # popped and collected so one observed run's in-memory
                # data is freed before the next pair runs
                plain, observed = pairs.pop(0)
                gc.collect()
                t0 = clock()
                plain_result = plain.run()
                t1 = clock()
                observed_result = observed.run()
                run_s.extend((t1 - t0, clock() - t1))
                del plain, observed
                mismatches += plain_result != observed_result
                results.append(plain_result)
            gc.collect()
            return mismatches

        mismatches, kernel_s = sampled(run_all, self.measure_speed, pin=True)
        return Pass(sum(run_s), 2 * sum(r.total_requests for r in results),
                    [fingerprint_run(r) for r in results], run_s, kernel_s,
                    attempted=2 * len(results), failed=mismatches)


class Campaign:
    """The fig4 preset through the campaign engine on fresh stores."""

    measure_speed = True

    def __init__(self, seed: int, scale: str, out: Path):
        self.seed, self.scale, self.out = seed, scale, out
        self.per_category = 2 if scale == "full" else 1
        self.plan = None
        self.stores = []
        self._tmp: Optional[str] = None
        self.tracer = None

    def build(self, passes: int) -> list:
        from repro.campaign import CampaignStore, preset_plan

        self.plan = preset_plan(
            "fig4", per_category=self.per_category,
            config=sim_config(self.scale),
            base_seed=self.seed * self.per_category)
        self.out.mkdir(parents=True, exist_ok=True)
        if self._tmp is None:
            self._tmp = tempfile.mkdtemp(prefix="stores-", dir=self.out)
        built = []
        for _ in range(passes):
            store = CampaignStore(tempfile.mkdtemp(dir=self._tmp))
            if self.tracer is not None:
                self.tracer.instrument_store(store)
            self.stores.append(store)
            built.append(store)
        return built

    def execute(self, store):
        from repro.campaign import execute_plan

        if self.tracer is None:
            return execute_plan(self.plan, store=store,
                                workers=CAMPAIGN_WORKERS)
        # inline, so every span is recorded in this process
        return self.tracer.wrap("campaign.execute_plan", execute_plan)(
            self.plan, store=store, workers=1)

    def run(self, store) -> Pass:
        from repro.experiments import runner

        runner.clear_alone_cache()

        def execute():
            start = time.perf_counter()
            report = self.execute(store)
            return report, time.perf_counter() - start

        (report, wall), kernel_s = sampled(execute, self.measure_speed,
                                           pin=False)
        return Pass(
            wall,
            int(sum(r.payload["summary"]["requests"]
                    for r in report.results if r.ok)),
            self.fingerprint(report), kernel_s=kernel_s,
            attempted=len(report.results),
            failed=len(report.failed),
            points_s=sum(r.duration for r in report.results))

    @staticmethod
    def fingerprint(report) -> list:
        """Per point: its identity and every number the store keeps,
        alone-run IPCs included."""
        return [{"workload": r.point.workload.name,
                 "scheduler": r.point.scheduler, "seed": r.point.seed,
                 "ok": r.ok, "payload": r.payload}
                for r in report.results]

    def warm(self, store, reruns: int):
        """Rerun against a finished store.

        Returns (seconds of each rerun, points served from the store,
        points, digest of each rerun).
        """
        times, cached, points, digests = [], 0, 0, []
        for _ in range(reruns):
            start = time.perf_counter()
            report = self.execute(store)
            times.append(time.perf_counter() - start)
            cached += report.cached
            points += len(report.results)
            digests.append(digest(self.fingerprint(report)))
        return times, cached, points, digests

    def close(self) -> None:
        for store in self.stores:
            store.close()
        self.stores = []
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None


def make_workload(name: str, seed: int, scale: str, out: Path):
    if name == "campaign_fig4":
        return Campaign(seed, scale, out)
    if name == "observed":
        return Observed(name, seed, scale)
    return Simulations(name, seed, scale)


def pass_count(name: str, seconds: int, scale: str) -> int:
    if scale == "smoke":
        return 1
    return max(1, int(seconds // SECONDS_PER_PASS[name]))


def observer_overhead(passes: List[Pass]) -> float:
    """Median over mixes of observed over plain host time, each run's
    fastest over the passes."""
    best = [min(times) for times in zip(*(p.run_s for p in passes))]
    return statistics.median(o / p for p, o in zip(best[0::2], best[1::2]))


# ----------------------------------------------------------------------
# checks and environment
# ----------------------------------------------------------------------


def expected_digest(scale: str, seed: int, name: str) -> Optional[str]:
    if not EXPECTED_PATH.is_file():
        return None
    data = json.loads(EXPECTED_PATH.read_text())
    return data.get(scale, {}).get(str(seed), {}).get(name)


def mismatches(digests: List[str], expected: Optional[str]) -> int:
    """Passes differing from the first, plus one if the first differs
    from the recording."""
    first = digests[0]
    count = sum(d != first for d in digests[1:])
    return count + (expected is not None and first != expected)


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def environment() -> dict:
    import numpy

    from repro import SimConfig, System, make_scheduler

    probe = System(make_mixes((0.5,), 1, 0)[0], make_scheduler("frfcfs"),
                   SimConfig())
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        # the engine System resolves by default; "default" once the
        # attribute is gone
        "engine": getattr(probe, "backend", "default"),
        "campaign_workers": CAMPAIGN_WORKERS,
    }


def peak_rss_mb(include_children: bool) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def quartiles(values: List[float]):
    """(median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------


def child_argv(args, workload: str, seed: int, *extra: str) -> List[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--scale", args.scale,
            "--out", str(args.out), *extra]


def probe_setups(args, count: int) -> List[float]:
    """Set-up seconds of ``count`` fresh processes doing this set-up."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            child_argv(args, args.workload, args.seed, "--setup-probe"),
            capture_output=True, text=True, timeout=120,
            env=clean_environment(os.environ))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_untraced(args, workload, expected) -> dict:
    passes = pass_count(args.workload, args.seconds, args.scale)
    inputs = workload.build(passes)
    setup_main = time.perf_counter() - _T0
    results = [workload.run(inputs[i]) for i in range(passes)]
    del inputs
    digests = [p.digest for p in results]
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    info = {}
    if isinstance(workload, Campaign):
        times, cached, points, warm = workload.warm(workload.stores[-1],
                                                    WARM_RERUNS)
        digests += warm
        attempted += points
        failed += points - cached
        info["cached_rerun_s"] = statistics.median(times)
    if isinstance(workload, Observed):
        info["observer_overhead_x"] = observer_overhead(results)
    rss = peak_rss_mb(include_children=isinstance(workload, Campaign))
    workload.close()
    setups = [setup_main] + probe_setups(args, SETUP_SAMPLES - 1)
    failed += mismatches(digests, expected)
    # host time rescaled by the reference kernel's speed during the same
    # pass, which cancels most of the host's drift; see the README
    norm_wall = statistics.median(p.norm_wall_s for p in results)
    wall = min(p.wall_s for p in results)
    host_slowdown = slowdown([k for p in results for k in p.kernel_s])
    requests = results[0].requests
    metrics = {
        # not rescaled: set-up time does not follow the kernel's speed
        "setup_s": (statistics.median(setups), "s"),
        "norm_requests_per_s": (requests / norm_wall, "req/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {
        "metrics": metrics,
        # printed and recorded, not declared: times vary with each
        # seed's amount of work, and raw host time with the host
        "informational": {
            "norm_wall_s": (norm_wall, "s"),
            "wall_s": (wall, "s"),
            "sim_requests_per_s": (requests / wall, "req/s"),
            "host_slowdown_x": (host_slowdown, "ratio"),
            "failed_frac": (failed / attempted, "ratio"),
            **{k: (v, "ratio" if k.endswith("_x") else "s")
               for k, v in info.items()},
        },
        "attempted": attempted, "failed": failed,
        "digest": digests[0],
        "passes": [{"wall_s": p.wall_s, "norm_wall_s": p.norm_wall_s,
                    "requests": p.requests, "digest": p.digest,
                    "run_s": p.run_s, "kernel_s": p.kernel_s}
                   for p in results],
        "setup_samples_s": setups,
    }


def run_traced(args, workload, expected) -> dict:
    """One untraced and one traced pass; per-layer metrics."""
    from spantrace import SpanTracer

    campaign = isinstance(workload, Campaign)
    workload.measure_speed = False  # keeps both regions alike
    start = time.perf_counter()
    plain = workload.run(workload.build(1)[0])
    plain_region = time.perf_counter() - start
    digests = [plain.digest]
    attempted, failed = plain.attempted, plain.failed
    info = {"observer_overhead_x": 0.0, "cached_rerun_s": 0.0,
            "campaign.store_hit_ratio": 0.0,
            "campaign.parallel_efficiency": 0.0}
    if campaign:
        times, cached, points, warm = workload.warm(workload.stores[-1],
                                                    WARM_RERUNS)
        digests += warm
        attempted += points
        failed += points - cached
        info["cached_rerun_s"] = statistics.median(times)
        info["campaign.store_hit_ratio"] = cached / points
        info["campaign.parallel_efficiency"] = plain.points_s / (
            plain.wall_s * CAMPAIGN_WORKERS)
        # the traced pass runs inline; so does its untraced reference
        start = time.perf_counter()
        inline = workload.run(workload.build(1)[0])
        workload.warm(workload.stores[-1], 1)
        plain_region = time.perf_counter() - start
        digests.append(inline.digest)
        attempted += inline.attempted
        failed += inline.failed
    run_s = plain.run_s
    if isinstance(workload, Observed):
        info["observer_overhead_x"] = observer_overhead([plain])
        run_s = run_s[0::2]  # the plain runs

    def traced_region(tracer):
        workload.tracer = tracer
        try:
            result = workload.run(workload.build(1)[0])
            if campaign:
                workload.warm(workload.stores[-1], 1)
        finally:
            workload.tracer = None
        return result

    tracer = SpanTracer()
    traced = tracer.run(traced_region)
    workload.close()
    digests.append(traced.digest)
    attempted += traced.attempted
    failed += traced.failed + mismatches(digests, expected)

    run_s = run_s or [
        end - begin for _, _, name, begin, end in tracer.spans
        if name == "sim.System.run"]
    metrics = layer_metrics(tracer, run_s, info,
                            tracer.wall_s / plain_region)
    report = tracer.layers_report()
    report.update(workload=args.workload, seed=args.seed,
                  untraced_wall_s=plain_region,
                  overhead_x=tracer.wall_s / plain_region)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"layers-{args.workload}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    tracer.write_chrome_trace(args.out / f"trace-{args.workload}.json",
                              {"workload": args.workload,
                               "seed": args.seed})
    return {"metrics": metrics, "informational": {},
            "attempted": attempted, "failed": failed,
            "digest": digests[0], "tiling_error":
                abs(sum(v["self_s"] for v in report["layers"].values())
                    - tracer.wall_s) / tracer.wall_s}


def layer_metrics(tracer, run_s: List[float], info: dict,
                  overhead_x: float) -> dict:
    """Every per-layer metric, 0 where the workload has no such work."""
    calls, self_s, inclusive = tracer.calls, tracer.self_s, tracer.inclusive_s
    counters = tracer.counters
    wall = tracer.wall_s

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("sim", "cpu", "dram", "schedulers", "core") + \
            OBSERVER_LAYERS:
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.share"] = (self_s(layer) / wall, "ratio")
        if layer != "sim":
            m[f"{layer}.calls"] = (calls(layer), "count")
    p50, p75 = quartiles(run_s) if run_s else (0.0, 0.0)
    m["sim.run_p50_s"] = (p50, "s")
    m["sim.run_p75_s"] = (p75, "s")
    m["cpu.ns_per_call"] = (ratio(self_s("cpu"), calls("cpu")) * 1e9, "ns")
    m["cpu.issue_blocked_ratio"] = (
        ratio(counters["cpu.issue_blocked"], calls("cpu.try_issue")),
        "ratio")
    m["cpu.prefetch_calls"] = (calls("cpu.prefetch"), "count")
    m["cpu.prefetch_hit_ratio"] = (
        ratio(counters["cpu.prefetch_hits"], calls("cpu.prefetch.observe")),
        "ratio")
    m["dram.write_calls"] = (calls("dram.write"), "count")
    m["dram.write_self_s"] = (self_s("dram.write"), "s")
    m["dram.row_hit_ratio"] = (
        ratio(counters["dram.row_hits"], calls("dram.start_service")),
        "ratio")
    selects = calls("schedulers.select")
    m["schedulers.select_calls"] = (selects, "count")
    m["schedulers.ns_per_select"] = (
        ratio(self_s("schedulers.select"), selects) * 1e9, "ns")
    m["schedulers.queue_depth_mean"] = (
        ratio(counters["schedulers.queue_depth"], selects), "requests")
    m["workloads.self_s"] = (self_s("workloads"), "s")
    alone_calls = calls("experiments.alone_ipc")
    alone_sims = counters["experiments.alone_sims"]
    m["experiments.alone_calls"] = (alone_calls, "count")
    m["experiments.alone_sims"] = (alone_sims, "count")
    m["experiments.alone_hit_ratio"] = (
        ratio(alone_calls - alone_sims, alone_calls), "ratio")
    m["experiments.alone_s"] = (inclusive("experiments.alone_ipc"), "s")
    m["experiments.shared_s"] = (inclusive("experiments.run_shared"), "s")
    m["experiments.score_s"] = (inclusive("experiments.score_run"), "s")
    store_io = self_s("campaign.store")
    m["campaign.store_calls"] = (calls("campaign.store"), "count")
    m["campaign.store_io_s"] = (store_io, "s")
    m["campaign.overhead_s"] = (self_s("campaign") - store_io, "s")
    m["campaign.store_hit_ratio"] = (info["campaign.store_hit_ratio"],
                                     "ratio")
    m["campaign.parallel_efficiency"] = (
        info["campaign.parallel_efficiency"], "ratio")
    m["trace.overhead_x"] = (overhead_x, "ratio")
    m["observer_overhead_x"] = (info["observer_overhead_x"], "ratio")
    m["cached_rerun_s"] = (info["cached_rerun_s"], "s")
    return m


def run_workload(args) -> int:
    """Run one workload here; print metrics and the result line."""
    for key in set(os.environ) - set(clean_environment(os.environ)):
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}",
              file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed, args.scale, args.out)
    if args.setup_probe:
        workload.build(pass_count(args.workload, args.seconds, args.scale))
        print(time.perf_counter() - _T0)
        workload.close()
        return 0
    expected = (None if args.record_expected
                else expected_digest(args.scale, args.seed, args.workload))
    try:
        if args.trace:
            out = run_traced(args, workload, expected)
        else:
            out = run_untraced(args, workload, expected)
    finally:
        workload.close()
    out.update(workload=args.workload, seed=args.seed, scale=args.scale,
               seconds=args.seconds, trace=args.trace,
               expected_digest=expected, environment=environment())
    for name, (value, unit) in {**out["metrics"],
                                **out["informational"]}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (args.out / f"{args.workload}{suffix}.json").write_text(
        json.dumps(out, indent=1, sort_keys=True))
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in out["metrics"].items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# several workloads, each in a fresh child process
# ----------------------------------------------------------------------


def run_child(args, workload: str, seed: int, *extra: str):
    """(exit code, result line or None, details or None, stdout)."""
    argv = child_argv(args, workload, seed, "--trace", str(args.trace),
                      *extra)
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=900, env=clean_environment(os.environ))
    lines = proc.stdout.strip().splitlines()
    finished = bool(lines) and lines[-1].startswith("{")
    if proc.returncode != 0 and not finished:
        sys.stderr.write(proc.stderr)
    result = details = None
    if finished:
        result = json.loads(lines[-1])
        suffix = "-trace" if args.trace else ""
        details = json.loads(
            (args.out / f"{workload}{suffix}.json").read_text())
    return proc.returncode, result, details, proc.stdout


def run_all(args) -> int:
    summary, status = {}, 0
    for workload in WORKLOADS:
        code, result, details, stdout = run_child(args, workload, args.seed)
        sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n")
        status |= code != 0 or result is None or not result["correct"]
        summary[workload] = {"exit_code": code, "result": result,
                             "details": details}
    name = "e2e-trace.json" if args.trace else "e2e.json"
    (args.out / name).write_text(json.dumps(summary, indent=1,
                                            sort_keys=True))
    print(f"wrote {args.out / name}")
    return 1 if status else 0


def round_up(value: float, step: float = 0.01) -> float:
    return math.ceil(value / step - 1e-9) * step


def run_repeat(args) -> int:
    """``--repeat N``: N invocations per workload on seeds seed..seed+N-1.

    Writes each metric's spread to ``noise.json``: the interquartile
    range and the full range, both as shares of the median, and the
    bound they call for, max(5%, 2x range, 3x interquartile range).
    The printed but undeclared metrics (raw host time among them) are
    included for comparison.  When ``noise.json`` already holds a set for
    the same seeds, each metric is also compared with it seed by seed:
    the spread across seeds is mostly the seeds' different work, and
    these differences are what is left, the measurement's own noise.
    """
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    values: Dict[str, Dict[str, list]] = {w: {} for w in workloads}
    status = 0
    for i in range(args.repeat):
        for workload in workloads:
            code, result, details, _ = run_child(args, workload,
                                                 args.seed + i)
            if result is None or not result["correct"]:
                print(f"{workload} seed {args.seed + i}: failed "
                      f"(exit {code})")
                status = 1
                continue
            measured = {**{k: m["value"] for k, m in result["metrics"].items()},
                        **{k: v for k, (v, _) in
                           details["informational"].items()}}
            for name, value in measured.items():
                values[workload].setdefault(name, []).append(value)
            print(f"{workload} seed {args.seed + i}: " + ", ".join(
                f"{k}={v['value']:.4g}"
                for k, v in result["metrics"].items()), flush=True)
    noise = (json.loads(NOISE_PATH.read_text()) if NOISE_PATH.is_file()
             else {"workloads": {}})
    seeds = [args.seed, args.seed + args.repeat - 1]
    for workload, metrics in values.items():
        previous = noise["workloads"].get(workload, {})
        if previous.get("seeds") != seeds or \
                previous.get("seconds") != args.seconds:
            previous = {}
        entry = {}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            if median == 0:  # failed_frac of a correct run
                continue
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [
                median] * 3
            iqr, spread = (q[2] - q[0]) / median, (max(vals) - min(vals)) / median
            entry[name] = {
                "values": vals, "median": median, "iqr_share": iqr,
                "range_share": spread,
                "bound_needed": round_up(max(0.05, 2 * spread, 3 * iqr)),
            }
            line = (f"{workload} {name}: median {median:.4g}, "
                    f"iqr {iqr:.3f}, range {spread:.3f}")
            before = previous.get("metrics", {}).get(name)
            if before is not None and len(before["values"]) == len(vals):
                shift = median / before["median"] - 1
                diff = max(abs(v / b - 1)
                           for v, b in zip(vals, before["values"]))
                entry[name]["previous_set"] = {
                    "median_shift": shift, "max_same_seed_diff": diff}
                line += f", vs previous set: median {shift:+.3f}, " \
                        f"same seed up to {diff:.3f}"
            print(line)
        noise["workloads"][workload] = {
            "seeds": seeds, "seconds": args.seconds, "metrics": entry}
    NOISE_PATH.write_text(json.dumps(noise, indent=1, sort_keys=True) + "\n")
    print(f"wrote {NOISE_PATH}")
    return status


def run_record_expected(args) -> int:
    """Record the digests of :data:`RECORDED_SEEDS` at both scales."""
    expected: Dict[str, Dict[str, Dict[str, str]]] = {}
    status = 0
    for scale in ("full", "smoke"):
        args.scale = scale
        for seed in RECORDED_SEEDS:
            for workload in WORKLOADS:
                args.seconds = 1  # one pass
                code, result, details, _ = run_child(
                    args, workload, seed, "--record-expected")
                if result is None or not result["correct"]:
                    print(f"{scale} {seed} {workload}: failed (exit {code})")
                    status = 1
                    continue
                expected.setdefault(scale, {}).setdefault(str(seed), {})[
                    workload] = details["digest"]
                print(f"{scale} {seed} {workload}: {details['digest']}",
                      flush=True)
    if status == 0:
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1,
                                            sort_keys=True) + "\n")
        print(f"wrote {EXPECTED_PATH}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process "
                             "(default: all four, each in a child)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="measuring time; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced per-layer run instead")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: 60k cycles, one pass, "
                             "per_category=1 (self-test)")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="noise calibration over N invocations")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json (seeds 0-9)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for details, traces and stores")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    args.out = args.out.resolve()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeat:
        return run_repeat(args)
    if args.record_expected and args.workload is None:
        return run_record_expected(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
