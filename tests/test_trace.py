"""Tests for the trace record/replay package."""

import pytest

from repro.config import SimConfig
from repro.schedulers import make_scheduler
from repro.sim import System
from repro.sim.fused import fusable
from repro.sim.observer import Observer
from repro.trace import (
    TraceEvent,
    TraceRecorder,
    TraceSpec,
    read_trace,
    replay_workload,
    write_trace,
)
from repro.trace.replay import ReplayThread
from repro.workloads.mixes import Workload

CFG = SimConfig(run_cycles=60_000, phase_mean_cycles=0)


def small_workload():
    return Workload(name="w", benchmark_names=("mcf", "libquantum"))


class TestFormat:
    def test_round_trip(self, tmp_path):
        events = [
            TraceEvent(cycle=0, channel=0, bank=1, row=5),
            TraceEvent(cycle=100, channel=3, bank=0, row=9),
        ]
        path = tmp_path / "a.trace"
        assert write_trace(path, events, benchmark="mcf") == 2
        assert read_trace(path) == events

    def test_header_carries_benchmark(self, tmp_path):
        path = tmp_path / "a.trace"
        write_trace(path, [TraceEvent(0, 0, 0, 0)], benchmark="lbm")
        from repro.trace.format import TraceReader

        reader = TraceReader(path)
        list(reader)
        assert reader.benchmark == "lbm"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n0 0 0 0\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1 x\n1 2 3\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_decreasing_cycles_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1 x\n100 0 0 0\n50 0 0 0\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_negative_event_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(cycle=-1, channel=0, bank=0, row=0)


class TestRecorder:
    def test_recording_during_run(self):
        recorder = TraceRecorder()
        System(
            small_workload(), make_scheduler("frfcfs"), CFG, seed=0,
            observers=[recorder],
        ).run()
        assert set(recorder.events) == {0, 1}
        assert len(recorder.events[0]) > 50
        assert recorder.benchmarks[0] == "mcf"

    def test_recorded_cycles_monotone(self):
        recorder = TraceRecorder()
        System(
            small_workload(), make_scheduler("frfcfs"), CFG, seed=0,
            observers=[recorder],
        ).run()
        cycles = [e.cycle for e in recorder.events[0]]
        assert cycles == sorted(cycles)

    def test_save_all(self, tmp_path):
        recorder = TraceRecorder()
        System(
            small_workload(), make_scheduler("frfcfs"), CFG, seed=0,
            observers=[recorder],
        ).run()
        paths = recorder.save_all(tmp_path)
        assert len(paths) == 2
        assert paths[0].name == "t00-mcf.trace"
        assert len(read_trace(paths[0])) == len(recorder.events[0])


class TestReplay:
    def _record(self, tmp_path):
        recorder = TraceRecorder()
        System(
            small_workload(), make_scheduler("frfcfs"), CFG, seed=0,
            observers=[recorder],
        ).run()
        return recorder.save_all(tmp_path)

    def test_replay_runs(self, tmp_path):
        paths = self._record(tmp_path)
        system = replay_workload(
            [paths[0], paths[1]], make_scheduler("tcm"), CFG, seed=0
        )
        result = system.run()
        assert all(t.ipc > 0 for t in result.threads)

    def test_replay_preserves_intensity(self, tmp_path):
        """Replaying an alone-recorded thread alone reproduces its
        original miss throughput."""
        recorder = TraceRecorder()
        alone = Workload(name="solo", benchmark_names=("mcf",))
        original = System(
            alone, make_scheduler("frfcfs"), CFG, seed=0,
            observers=[recorder],
        ).run()
        path = recorder.save_all(tmp_path)[0]
        system = replay_workload([path], make_scheduler("frfcfs"), CFG)
        result = system.run()
        assert result.threads[0].misses == pytest.approx(
            original.threads[0].misses, rel=0.15
        )

    def test_replayed_run_is_the_same_plain_and_observed(self, tmp_path):
        """Replay threads override the CPU model, so a replayed system
        must stay off the fused loop: nothing attached, it simulates
        the traces exactly as it does with a no-op observer."""
        recorder = TraceRecorder()
        four = Workload(name="four", benchmark_names=(
            "mcf", "libquantum", "gcc", "povray"))
        System(four, make_scheduler("frfcfs"), CFG, seed=0,
               observers=[recorder]).run()
        saved = recorder.save_all(tmp_path)
        paths = [saved[tid] for tid in range(4)]
        config = SimConfig(run_cycles=60_000)
        plain = replay_workload(paths, make_scheduler("frfcfs"), config)
        assert not fusable(plain)
        observed = replay_workload(paths, make_scheduler("frfcfs"), config)
        observed.attach(Observer())
        assert plain.run() == observed.run()

    def test_replay_addresses_match_trace(self, tmp_path):
        paths = self._record(tmp_path)
        trace = TraceSpec.from_file(paths[0])
        thread = ReplayThread(0, trace, CFG, seed=0)
        for expected in trace.events[:20]:
            location = thread.try_issue(0)
            thread.on_request_completed(thread.issued)
            assert location == (expected.channel, expected.bank, expected.row)

    def test_trace_spec_statistics(self, tmp_path):
        paths = self._record(tmp_path)
        trace = TraceSpec.from_file(paths[1])   # libquantum
        spec = trace.to_benchmark_spec(CFG)
        assert spec.rbl > 0.8    # streaming locality survives recording
        # program-time gaps are contention-free, so the derived
        # intensity tracks libquantum's 50 MPKI
        assert spec.mpki == pytest.approx(50.0, rel=0.25)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec([])

    def test_short_trace_loops(self):
        """A trace much shorter than the run wraps around and keeps
        feeding the thread."""
        events = [
            TraceEvent(cycle=i * 100, channel=0, bank=0, row=5)
            for i in range(10)
        ]
        trace = TraceSpec(events, benchmark="tiny")
        system = replay_workload([trace], make_scheduler("frfcfs"), CFG)
        result = system.run()
        assert result.threads[0].misses > 50

    def test_trace_spec_mean_gap(self):
        events = [
            TraceEvent(cycle=c, channel=0, bank=0, row=1)
            for c in (0, 100, 200, 300)
        ]
        assert TraceSpec(events).mean_gap() == pytest.approx(100.0)

    def test_single_event_trace_has_default_gap(self):
        trace = TraceSpec([TraceEvent(cycle=0, channel=0, bank=0, row=1)])
        assert trace.mean_gap() == 1000.0
