"""Tests for repro.obs.aggregate — run and campaign observations."""

import pytest

from repro.config import SimConfig
from repro.obs.aggregate import (
    observe_campaign,
    observe_run,
    scheduler_means,
)
from repro.workloads import (
    RANDOM_ACCESS,
    STREAMING,
    workload_from_specs,
)

PAIR = workload_from_specs("pair", [RANDOM_ACCESS, STREAMING])
CFG = SimConfig(run_cycles=40_000, num_threads=2)


class TestObserveRun:
    def test_full_observation(self):
        obs = observe_run(PAIR, "frfcfs", CFG, seed=5,
                          epoch_cycles=10_000)
        assert obs.workload == "pair"
        assert obs.benchmarks == ["random-access", "streaming"]
        assert obs.cycles == 40_000
        assert obs.total_requests > 0
        assert 0.0 <= obs.row_hit_rate <= 1.0
        assert obs.report.num_threads == 2
        assert all(v == "ok" for v in obs.report.checks.values())
        # alone runs ran: metrics and true slowdowns present
        assert set(obs.metrics) == {"ws", "ms", "hs"}
        assert obs.report.true_slowdowns is not None
        assert all(s >= 1.0 for s in obs.report.true_slowdowns)
        # epoch sampler delivered cluster-timeline rows
        assert len(obs.samples) >= 3

    def test_without_alone_runs(self):
        obs = observe_run(PAIR, "fcfs", CFG, seed=5, with_alone=False)
        assert obs.metrics is None
        assert obs.report.true_slowdowns is None

    def test_counts_events_without_keeping_them(self, monkeypatch):
        """Nothing reads an observed run's events, so no sink holds
        them; the tracer still counts as many as an in-memory one."""
        from repro.schedulers import make_scheduler
        from repro.sim import System
        from repro.telemetry import Telemetry
        from repro.telemetry.sinks import MemorySink

        telemetry = Telemetry.observing()
        System(PAIR, make_scheduler("frfcfs"), CFG, seed=5,
               telemetry=telemetry).run()
        kept = []
        monkeypatch.setattr(MemorySink, "write",
                            lambda self, event: kept.append(event))
        obs = observe_run(PAIR, "frfcfs", CFG, seed=5, with_alone=False)
        assert obs.events == len(telemetry.events) > 0
        assert kept == []

    def test_stfm_observation_carries_exact_shadow_check(self):
        obs = observe_run(PAIR, "stfm", CFG, seed=5, with_alone=False)
        assert obs.report.checks.get("stfm_shadow_exact") == "ok"


def seeded_store(tmp_path):
    from repro.campaign.store import (
        CampaignStore,
        KIND_FAILURE,
        KIND_POINT,
        KIND_SUMMARY,
    )

    store = CampaignStore(tmp_path / "store")
    for scheduler in ("tcm", "atlas"):
        for i, workload in enumerate(("mix-a", "mix-b")):
            store.put(
                f"{scheduler}-{workload}", KIND_POINT,
                {"metrics": {"ws": 2.0 + i, "ms": 3.0 - i,
                             "hs": 0.5 + i / 10}},
                meta={"workload": workload, "scheduler": scheduler,
                      "seed": i, "tag": None},
            )
    store.put(
        "boom", KIND_FAILURE,
        {"error": "ValueError: synthetic", "attempts": 2},
        meta={"workload": "mix-c", "scheduler": "tcm", "seed": 7},
    )
    store.put("summary", KIND_SUMMARY, {}, meta={"points": 4})
    store.close()
    return store


class TestObserveCampaign:
    def test_reads_points_failures_summary(self, tmp_path):
        store = seeded_store(tmp_path)
        obs = observe_campaign(store)
        assert sorted(obs.schedulers) == ["atlas", "tcm"]
        assert [p["workload"] for p in obs.schedulers["tcm"]] == \
            ["mix-a", "mix-b"]
        assert obs.schedulers["tcm"][0]["ws"] == 2.0
        assert len(obs.failures) == 1
        assert obs.failures[0]["error"].startswith("ValueError")
        assert obs.summary == {"points": 4}

    def test_accepts_a_path(self, tmp_path):
        seeded_store(tmp_path)
        obs = observe_campaign(tmp_path / "store")
        assert len(obs.schedulers["atlas"]) == 2

    def test_scheduler_means(self, tmp_path):
        obs = observe_campaign(seeded_store(tmp_path))
        rows = scheduler_means(obs)
        assert [r["scheduler"] for r in rows] == ["atlas", "tcm"]
        assert rows[1]["points"] == 2
        assert rows[1]["ws"] == pytest.approx(2.5)

    def test_empty_store(self, tmp_path):
        from repro.campaign.store import CampaignStore

        store = CampaignStore(tmp_path / "empty")
        obs = observe_campaign(store)
        assert obs.schedulers == {} and obs.failures == []
        assert scheduler_means(obs) == []
