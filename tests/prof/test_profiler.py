"""Sampling profiler: attribution, identity, the fused loop, labels from
the code, and a timer that never outlives the run.

Shares are asserted only on ``tcm_profile``, a run long enough (some
200 samples) that a component above a tenth of the time is missing with
negligible probability.  Labels and the observer cut-off are asserted
on frames captured inside the function (:func:`_path_inside`), so no
assert here depends on where a timer tick happened to land.
"""

import inspect
import signal
import sys

import pytest

from repro import SimConfig, System, make_scheduler
from repro.obs.aggregate import observe_run
from repro.obs.spans import SpanCollector
from repro.prof import (
    Profiler,
    attach_profiler,
    component_of,
    profile_run,
)
from repro.prof.profiler import fused_label, fused_tags
from repro.sim import fused
from repro.sim.fused import advance_fused, fusable
from repro.sim.observer import Observer
from repro.telemetry import Telemetry
from repro.validate import attach_oracle
from repro.workloads import make_intensity_workload

CYCLES = 30_000


def _workload(threads=8):
    return make_intensity_workload(0.75, num_threads=threads, seed=0)


def _system(threads=8, telemetry=None, scheduler="tcm", cycles=CYCLES):
    cfg = SimConfig(run_cycles=cycles)
    return System(_workload(threads), make_scheduler(scheduler), cfg,
                  seed=0, telemetry=telemetry)


def _path_inside(system, profiler, want):
    """Run ``system`` and return its result and the profiler's path of
    the first call frame ``want(frame)`` accepts, captured on entry."""
    found = []

    def hook(frame, event, arg):
        if event == "call" and want(frame):
            found.append(profiler.path_of(frame))
            sys.setprofile(None)

    sys.setprofile(hook)
    try:
        result = system.run()
    finally:
        sys.setprofile(None)
    assert found, "the function never ran"
    return result, found[0]


def _called_from(name, caller):
    """A ``want`` for :func:`_path_inside`: a call of ``name`` straight
    from the function whose code is ``caller``."""
    return lambda frame: (frame.f_code.co_name == name
                          and frame.f_back.f_code is caller)


def _timer_is_clean(handler):
    return (signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            and signal.getsignal(signal.SIGPROF) is handler)


class TestComponentOf:
    def test_prefix_mapping(self):
        assert component_of("sched.rank[TCM]") == "scheduler"
        assert component_of("dram.service") == "dram"
        assert component_of("cpu.retire") == "cpu"
        assert component_of("telemetry.emit") == "telemetry"
        assert component_of("obs.spans.grant") == "obs"
        assert component_of("engine.dispatch") == "engine"
        assert component_of("run") == "engine"

    def test_unknown_label_is_other(self):
        assert component_of("mystery.thing") == "other"


class TestIdentity:
    def test_profiled_run_is_byte_identical(self, tcm_profile):
        result, _ = tcm_profile
        plain = System(make_intensity_workload(0.75, num_threads=24, seed=0),
                       make_scheduler("tcm"), SimConfig(), seed=0).run()
        assert result == plain

    def test_detach_leaves_no_instance_attrs(self):
        system = _system()
        profiler = attach_profiler(system)
        system.run()
        profiler.detach()
        assert profiler not in system.observers
        assert fusable(system)

    def test_untouched_system_has_no_profiler(self):
        assert _system().observers == []


class TestFusedLoop:
    def test_attached_profiler_keeps_the_fused_loop(self):
        """Attaching wraps nothing: the run stays on the fused loop and
        no component gains an instance attribute."""
        system = _system()
        parts = [system, system.scheduler, *system.channels,
                 *(bank for channel in system.channels
                   for bank in channel.banks),
                 *system.threads]
        before = [set(vars(part)) for part in parts]
        attach_profiler(system)
        assert fusable(system)
        assert [set(vars(part)) for part in parts] == before

    def test_samples_land_in_the_fused_loop(self, tcm_profile):
        _, report = tcm_profile
        labels = {label for path in report.nodes for label in path}
        assert "engine.loop" in labels
        assert "engine.dispatch" not in labels  # the dispatch loop's


class TestFusedTags:
    """``advance_fused``'s blocks, read from the source (no timing)."""

    def test_every_line_lies_in_one_tagged_block(self):
        lines, labels = fused_tags()
        source, first = inspect.getsourcelines(advance_fused)
        last = first + len(source) - 1
        # the tags are in order, the first sits on the line above the
        # def, and no tag lies outside advance_fused
        assert list(lines) == sorted(set(lines))
        assert lines[0] == first - 1 and lines[-1] <= last
        # every block holds code; every line of the function falls in
        # the block of the last tag at or above it, and in no other
        bounds = list(lines[1:]) + [last + 1]
        module, _ = inspect.getsourcelines(fused)
        for start, end in zip(lines, bounds):
            body = [module[n - 1].strip() for n in range(start + 1, end)]
            assert any(line and not line.startswith("#") for line in body)
        for line in range(first, last + 1):
            owners = [label for start, end, label
                      in zip(lines, bounds, labels) if start <= line < end]
            assert len(owners) == 1
            assert fused_label(line) == owners[0]

    def test_every_tag_names_a_known_component(self):
        _, labels = fused_tags()
        assert {component_of(label) for label in labels} <= {
            "engine", "cpu", "dram"}
        assert {"engine.loop", "dram.grant", "cpu.retire",
                "engine.monitor"} <= set(labels)


class TestTimer:
    def test_stopped_after_a_profiled_run(self):
        handler = signal.getsignal(signal.SIGPROF)
        system = _system(cycles=10_000)
        profiler = attach_profiler(system)
        system.run()
        assert _timer_is_clean(handler)
        profiler.detach()
        assert _timer_is_clean(handler)

    def test_stopped_by_detach_mid_run(self):
        handler = signal.getsignal(signal.SIGPROF)
        system = _system(cycles=10_000)
        profiler = attach_profiler(system)
        system.start_run()
        system.advance(5_000)
        assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) is not handler
        profiler.detach()
        assert _timer_is_clean(handler)

    def test_stopped_when_an_observer_raises(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("observer failed")

        handler = signal.getsignal(signal.SIGPROF)
        monkeypatch.setattr(SpanCollector, "on_grant", boom)
        with pytest.raises(RuntimeError, match="observer failed"):
            observe_run(_workload(4), "tcm", SimConfig(run_cycles=5_000),
                        with_alone=False)
        assert _timer_is_clean(handler)
        with pytest.raises(RuntimeError, match="observer failed"):
            profile_run(_workload(4), "tcm", SimConfig(run_cycles=5_000),
                        telemetry=Telemetry(spans=SpanCollector()))
        assert _timer_is_clean(handler)


class TestLifecycle:
    def test_double_attach_rejected(self):
        system = _system()
        profiler = attach_profiler(system)
        with pytest.raises(RuntimeError):
            profiler.attach(system)
        profiler.detach()

    def test_detach_without_attach_rejected(self):
        with pytest.raises(RuntimeError):
            Profiler().detach()


class TestReport:
    def test_shares_sum_to_one(self, tcm_profile):
        _, report = tcm_profile
        shares = report.component_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert all(v >= 0.0 for v in shares.values())
        # each holds a fifth or more of a TCM run's samples
        for component in ("engine", "dram", "cpu"):
            assert component in shares

    def test_shares_sorted_descending(self, tcm_profile):
        _, report = tcm_profile
        values = list(report.component_shares().values())
        assert values == sorted(values, reverse=True)

    def test_self_times_never_exceed_inclusive(self, tcm_profile):
        _, report = tcm_profile
        selfs = report.self_times()
        for path, node in report.nodes.items():
            assert 0.0 <= selfs[path] <= node.inclusive_s + 1e-12

    def test_samples_stand_for_the_wall_time(self, tcm_profile):
        _, report = tcm_profile
        assert report.samples == report.nodes[("run",)].samples > 0
        assert report.total_s == pytest.approx(report.wall_s)

    def test_run_metadata(self, tcm_profile):
        result, report = tcm_profile
        assert report.cycles == SimConfig().run_cycles
        assert report.scheduler == "TCM"
        assert report.requests == result.total_requests
        assert report.events > result.total_requests
        assert report.events_per_sec() > 0
        assert report.requests_per_sec() > 0
        assert report.wall_s > 0

    def test_slowest_and_format_text(self, tcm_profile):
        _, report = tcm_profile
        slowest = report.slowest(limit=5)
        assert len(slowest) == 5
        selfs = report.self_times()
        assert selfs[slowest[0].path] >= selfs[slowest[-1].path]
        # the prof section of the run report
        from repro.obs.text import render_run_text

        text = render_run_text(profile=report)
        assert "component" in text
        assert "engine" in text and "cpu" in text
        assert ";".join(slowest[0].path) in text
        assert f"{report.samples} samples" in text


class TestAttachedLayers:
    def test_telemetry_overhead_is_attributed(self):
        """A tracer's frames end the path at ``telemetry.<function>``:
        its sinks, below, are cut off."""
        from repro.telemetry.tracer import Tracer

        telemetry = Telemetry.in_memory(epoch_cycles=10_000)
        system = _system(telemetry=telemetry)
        profiler = attach_profiler(system)
        _, path = _path_inside(
            system, profiler,
            _called_from("write_row", Tracer.write_row.__code__))
        profiler.detach()
        assert path[-1] == "telemetry.write_row"
        assert path[:3] == ("run", "engine.advance", "engine.loop")

    def test_oracle_hooks_are_attributed(self):
        """The oracle is an observer: what its hooks call is charged to
        ``obs.oracle.<hook>``."""
        from repro.validate.oracle import InvariantOracle

        for hook in ("on_grant", "on_decision"):
            system = _system()
            oracle = attach_oracle(system)
            profiler = attach_profiler(system)
            code = getattr(InvariantOracle, hook).__code__
            result, path = _path_inside(
                system, profiler,
                lambda frame: frame.f_back.f_code is code)
            profiler.detach()
            assert oracle.finish(result).ok
            assert path[-1] == f"obs.oracle.{hook.removeprefix('on_')}"
            assert "dram.grant" in path

    def test_explain_shadows_are_cut_off(self):
        """Explain scores the primary policy's queue (``demand_keys``)
        inside its hook: the sample is explain's, not the scheduler's."""
        from repro.explain import attach_explain
        from repro.explain.collector import ExplainCollector

        system = _system()
        attach_explain(system, shadows=("frfcfs",))
        profiler = attach_profiler(system)
        _, path = _path_inside(
            system, profiler,
            _called_from("demand_keys",
                         ExplainCollector.on_decision.__code__))
        profiler.detach()
        assert path[-1] == "obs.explain.decision"
        assert not any(label.startswith("sched.") for label in path)

    def test_profile_run_accepts_telemetry(self):
        telemetry = Telemetry.in_memory(epoch_cycles=10_000)
        result, report = profile_run(
            _workload(), "tcm", SimConfig(run_cycles=CYCLES), seed=0,
            telemetry=telemetry,
        )
        assert result.total_requests > 0
        assert telemetry.tracer.events_emitted > 0
        assert report.requests == result.total_requests


class TestEverySchedulerProfiles:
    @pytest.mark.parametrize("name", ["frfcfs", "stfm", "parbs", "atlas",
                                      "tcm", "fqm", "fcfs", "static"])
    def test_scheduler_component_present(self, name):
        cfg = SimConfig(run_cycles=20_000)
        plain = System(_workload(4), make_scheduler(name), cfg, seed=0).run()
        result, _ = profile_run(_workload(4), name, cfg, seed=0)
        assert result == plain
        # a frame in the policy's select, called from the fused grant
        system = System(_workload(4), make_scheduler(name), cfg, seed=0)
        profiler = attach_profiler(system)
        policy = system.scheduler
        select = type(policy).select.__code__
        result, path = _path_inside(
            system, profiler, lambda frame: frame.f_code is select)
        profiler.detach()
        assert result == plain
        assert path[-1] == f"sched.select[{policy.name}]"
        assert component_of(path[-1]) == "scheduler"
        assert "dram.grant" in path


class TestObserverLabels:
    def test_a_custom_observer_is_labelled_by_its_name(self):
        class Counter(Observer):
            name = "counter"

            def on_complete(self, request, now):
                self.tick()

            def tick(self):
                pass

        system = _system()
        system.attach(Counter())
        profiler = attach_profiler(system)
        _, path = _path_inside(
            system, profiler,
            _called_from("tick", Counter.on_complete.__code__))
        profiler.detach()
        assert path[-1] == "obs.counter.complete"
        assert component_of(path[-1]) == "obs"
