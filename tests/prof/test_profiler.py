"""Profiler core: attribution, identity, and clean detach."""

import pytest

from repro import SimConfig, System, make_scheduler
from repro.prof import (
    Profiler,
    attach_profiler,
    component_of,
    profile_run,
)
from repro.telemetry import Telemetry
from repro.validate import attach_oracle
from repro.workloads import make_intensity_workload

CYCLES = 30_000


def _workload(threads=8):
    return make_intensity_workload(0.75, num_threads=threads, seed=0)


def _system(threads=8, telemetry=None):
    cfg = SimConfig(run_cycles=CYCLES)
    return System(_workload(threads), make_scheduler("tcm"), cfg, seed=0,
                  telemetry=telemetry)


@pytest.fixture(scope="module")
def profiled():
    """One profiled TCM run shared by the read-only assertions."""
    result, report = profile_run(
        _workload(), "tcm", SimConfig(run_cycles=CYCLES), seed=0
    )
    return result, report


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
    def test_profiled_run_is_byte_identical(self, profiled):
        result, _ = profiled
        plain = _system().run()
        assert result == plain

    def test_detach_leaves_no_instance_attrs(self):
        system = _system()
        profiler = attach_profiler(system)
        system.run()
        profiler.detach()
        # every wrapper was an instance attribute; all must be gone
        assert "run" not in vars(system)
        assert "_issue_miss" not in vars(system)
        assert "_try_schedule" not in vars(system)
        for label, method in system.scheduler.prof_points():
            assert method not in vars(system.scheduler), label
        for channel in system.channels:
            assert "start_service" not in vars(channel)
        assert profiler not in system.observers

    def test_untouched_system_has_no_profiler(self):
        assert _system().observers == []


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
    def test_shares_sum_to_one(self, profiled):
        _, report = profiled
        shares = report.component_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert all(v >= 0.0 for v in shares.values())
        # the big four are always present on a TCM run
        for component in ("engine", "scheduler", "dram", "cpu"):
            assert component in shares

    def test_shares_sorted_descending(self, profiled):
        _, report = profiled
        values = list(report.component_shares().values())
        assert values == sorted(values, reverse=True)

    def test_self_times_never_exceed_inclusive(self, profiled):
        _, report = profiled
        selfs = report.self_times()
        for path, node in report.nodes.items():
            assert 0.0 <= selfs[path] <= node.inclusive_s + 1e-12

    def test_run_metadata(self, profiled):
        result, report = profiled
        assert report.cycles == CYCLES
        assert report.scheduler == "TCM"
        assert report.requests == result.total_requests
        assert report.events > result.total_requests
        assert report.events_per_sec() > 0
        assert report.requests_per_sec() > 0
        assert report.wall_s > 0

    def test_slowest_and_format_text(self, profiled):
        _, report = profiled
        slowest = report.slowest(limit=5)
        assert len(slowest) == 5
        assert slowest[0].inclusive_s >= slowest[-1].inclusive_s
        # the prof section of the run report
        from repro.obs.text import render_run_text

        text = render_run_text(profile=report)
        assert "component" in text
        assert "engine" in text and "scheduler" in text
        assert ";".join(slowest[0].path) in text


class TestAttachedLayers:
    def test_telemetry_overhead_is_attributed(self):
        telemetry = Telemetry.in_memory(epoch_cycles=10_000)
        system = _system(telemetry=telemetry)
        profiler = attach_profiler(system)
        system.run()
        report = profiler.detach()
        assert "telemetry" in report.component_shares()

    def test_oracle_hooks_are_attributed(self):
        """The oracle is an observer: a profiler attached after it
        times its checks under ``obs.oracle.<hook>``."""
        system = _system()
        oracle = attach_oracle(system)
        profiler = attach_profiler(system)
        result = system.run()
        report = profiler.detach()
        assert oracle.finish(result).ok
        labels = {path[-1] for path in report.nodes}
        assert "obs.oracle.grant" in labels
        assert "obs.oracle.decision" in labels

    def test_profile_run_accepts_telemetry(self):
        result, report = profile_run(
            _workload(), "tcm", SimConfig(run_cycles=CYCLES), seed=0,
            telemetry=Telemetry.in_memory(epoch_cycles=10_000),
        )
        assert result.total_requests > 0
        assert "telemetry" in report.component_shares()


class TestDeepMode:
    def test_deep_mode_produces_cprofile_table(self):
        _, report = profile_run(
            _workload(4), "frfcfs", SimConfig(run_cycles=20_000), seed=0,
            deep=True,
        )
        assert report.deep_table
        assert "cumtime" in report.deep_table


class TestEverySchedulerProfiles:
    @pytest.mark.parametrize("name", ["frfcfs", "stfm", "parbs", "atlas",
                                      "tcm", "fqm", "fcfs", "static"])
    def test_scheduler_component_present(self, name):
        cfg = SimConfig(run_cycles=20_000)
        plain = System(_workload(4), make_scheduler(name), cfg, seed=0).run()
        result, report = profile_run(_workload(4), name, cfg, seed=0)
        assert result == plain
        assert "scheduler" in report.component_shares()
