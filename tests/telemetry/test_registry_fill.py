"""The metrics registry read after the run and mid-run, against a recording.

``tests/goldens/registry_snapshots.json`` holds, for every registry
scheduler on the observer digests' run (60k cycles, 4 threads, writes
and prefetching on), the ordered ``snapshot()`` keys and values of the
system's registry after the run, and the ``registry`` dict of every
sample an ``EpochSampler(snapshot_registry=True)`` took during the same
run.  The recording pins which providers a System registers, their
labels and order, and what they read at each instant, whether the
registry is first read after the run or by the sampler mid-run.  Both
kinds of registry are held to it: the System's own, and one passed in
through ``Telemetry(registry=...)``.  Re-record (only when a change to
the registry's contents is intended) with::

    PYTHONPATH=src python -m tests.telemetry.test_registry_fill

A System registers its providers at its registry's first read, not when
it is built: a registry nobody reads holds no providers at all.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.explain import attach_explain
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.system import System
from repro.telemetry import EpochSampler, MetricsRegistry, Telemetry
from repro.telemetry.registry import _Provider
from repro.workloads import make_intensity_workload
from tests.sim.test_observers import RECORDED_CONFIG

FIXTURE = Path(__file__).resolve().parents[1] / "goldens" / \
    "registry_snapshots.json"

EPOCH = 5_000
KINDS = ("own", "passed")


def _system(scheduler: str, telemetry=None) -> System:
    workload = make_intensity_workload(0.75, num_threads=4, seed=3)
    return System(workload, make_scheduler(scheduler), RECORDED_CONFIG,
                  seed=5, telemetry=telemetry)


def _telemetry(kind: str, sampler=None):
    """No bundle, or one with ``sampler`` and, for ``kind="passed"``, a
    registry of its own."""
    registry = MetricsRegistry() if kind == "passed" else None
    if sampler is None and registry is None:
        return None
    return Telemetry(sampler=sampler, registry=registry)


def after_run(scheduler: str, kind: str = "own") -> dict:
    """The registry's snapshot, first read after the run."""
    system = _system(scheduler, _telemetry(kind))
    system.run()
    return system.metrics.snapshot()


def mid_run(scheduler: str, kind: str = "own") -> list:
    """``(cycle, registry snapshot)`` of every epoch sample of the run."""
    sampler = EpochSampler(EPOCH, snapshot_registry=True)
    _system(scheduler, _telemetry(kind, sampler)).run()
    return [(sample.cycle, sample.registry) for sample in sampler.samples]


def recording(scheduler: str) -> dict:
    """One scheduler's entry of the recording: keys once, values in order."""
    snapshot = after_run(scheduler)
    keys = list(snapshot)
    samples = []
    for cycle, registry in mid_run(scheduler):
        assert list(registry) == keys, "sampled keys differ from the run's"
        samples.append([cycle, list(registry.values())])
    return {"keys": keys, "after_run": list(snapshot.values()),
            "samples": samples}


def _canonical(value) -> str:
    """JSON text, so an int that became a float (or back) is drift."""
    return json.dumps(value, separators=(",", ":"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_recording_covers_the_registry(golden):
    assert sorted(golden) == sorted(SCHEDULERS)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_registry_read_after_the_run(golden, scheduler, kind):
    expected = golden[scheduler]
    snapshot = after_run(scheduler, kind)
    assert list(snapshot) == expected["keys"]
    assert _canonical(list(snapshot.values())) == \
        _canonical(expected["after_run"])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_registry_read_mid_run(golden, scheduler, kind):
    expected = golden[scheduler]
    samples = mid_run(scheduler, kind)
    assert [cycle for cycle, _ in samples] == \
        [cycle for cycle, _ in expected["samples"]]
    for (cycle, registry), (_, values) in zip(samples, expected["samples"]):
        assert list(registry) == expected["keys"], f"keys at {cycle}"
        assert _canonical(list(registry.values())) == _canonical(values), \
            f"values at {cycle}"


def _live_providers() -> int:
    gc.collect()
    return sum(type(o) is _Provider for o in gc.get_objects())


class TestFillOnFirstRead:
    def test_unread_registry_holds_no_providers(self):
        """A run nobody reads the registry of creates no provider; the
        first read creates all of a 24-thread TCM System's."""
        workload = make_intensity_workload(0.75, num_threads=24, seed=0)
        before = _live_providers()
        system = System(workload, make_scheduler("tcm"), SimConfig(), seed=0)
        system.run(20_000)
        assert _live_providers() == before
        assert len(system.metrics) == 375
        assert _live_providers() == before + 375

    def test_second_system_sharing_a_registry_raises(self):
        """Two live systems on one registry (not through one Telemetry,
        whose bind resets it): the second fill hits the guard."""
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="already registered"):
            _system("tcm", Telemetry(registry=registry))
            _system("tcm", Telemetry(registry=registry))
            registry.snapshot()

    def test_reset_drops_a_pending_fill(self):
        registry = MetricsRegistry()
        _system("tcm", Telemetry(registry=registry))
        registry.reset()
        assert len(registry) == 0

    def test_a_later_registration_follows_the_systems(self, golden):
        system = _system("tcm")
        system.metrics.register("user.metric", lambda: 1)
        assert list(system.metrics.snapshot()) == \
            golden["tcm"]["keys"] + ["user.metric"]

    def test_shadows_register_nothing(self, golden):
        system = _system("tcm")
        attach_explain(system, shadows=("stfm", "parbs", "atlas"))
        assert list(system.metrics.snapshot()) == golden["tcm"]["keys"]


if __name__ == "__main__":
    # one line per scheduler
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(recording(name))}"
        for name in sorted(SCHEDULERS)
    ) + "\n}\n")
    print(f"wrote {FIXTURE}")
