"""Tests for repro.campaign.plan — plan building and serialisation."""

import pytest

import repro.campaign.engine as engine
from repro.campaign.plan import (
    PRESET_PLANS,
    CampaignPlan,
    CampaignPoint,
    config_from_dict,
    config_to_dict,
    grid_plan,
    params_from_dict,
    params_to_dict,
    preset_plan,
    suite_plan,
)
from repro.config import SimConfig
from repro.config import TCMParams
from repro.experiments import (
    figure1,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    table6,
    table7,
    table8,
)
from repro.workloads import make_intensity_workload

CFG = SimConfig(run_cycles=25_000)
#: Short, narrow runs: enough to drive each figure end to end.
SHORT = SimConfig(run_cycles=10_000, num_threads=4)

#: Each suite figure at one workload per category, called the way
#: ``paper NAME`` calls it.
SUITE_FIGURES = {
    "fig1": lambda cfg: figure1(1, cfg),
    "fig4": lambda cfg: figure4(1, cfg),
    "fig5": lambda cfg: figure5(cfg, avg_workloads=1),
    "fig6": lambda cfg: figure6(1, cfg),
    "fig7": lambda cfg: figure7(1, config=cfg),
    "fig8": lambda cfg: figure8(cfg),
    "table6": lambda cfg: table6(1, cfg),
    "table7": lambda cfg: table7(1, cfg),
    "table8": lambda cfg: table8(1, cfg),
}


def workloads(n=2):
    return [
        make_intensity_workload(0.5, num_threads=2, seed=i) for i in range(n)
    ]


class TestBuilders:
    def test_grid_plan_cross_product(self):
        plan = grid_plan("g", workloads(2), ("frfcfs", "tcm"),
                         configs=[CFG], seeds=(0, 1))
        assert len(plan) == 8
        assert len(set(plan.keys)) == 8

    def test_suite_plan_seed_per_workload(self):
        plan = suite_plan("s", workloads(3), ("tcm",), config=CFG,
                          base_seed=10)
        assert [p.seed for p in plan] == [10, 11, 12]

    def test_grid_plan_params(self):
        params = {"tcm": TCMParams(cluster_thresh=0.1)}
        plan = grid_plan("g", workloads(1), ("frfcfs", "tcm"),
                         configs=[CFG], params=params)
        by_sched = {p.scheduler: p for p in plan}
        assert by_sched["tcm"].params == TCMParams(cluster_thresh=0.1)
        assert by_sched["frfcfs"].params is None

    def test_presets_build(self):
        for name in PRESET_PLANS:
            plan = preset_plan(name, per_category=1, config=CFG)
            assert len(plan) > 0
            assert plan.name == name

    def test_every_suite_figure_is_a_preset(self):
        assert set(PRESET_PLANS) == set(SUITE_FIGURES) | {"smoke"}

    @pytest.mark.parametrize("name", sorted(SUITE_FIGURES))
    def test_figure_runs_its_preset_in_one_call(self, name, monkeypatch):
        calls = []
        execute_plan = engine.execute_plan

        def spy(plan, *args, **kwargs):
            calls.append(plan.keys)
            return execute_plan(plan, *args, **kwargs)

        monkeypatch.setattr(engine, "execute_plan", spy)
        SUITE_FIGURES[name](SHORT)
        assert calls == [preset_plan(name, per_category=1, config=SHORT).keys]

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_plan("not-a-preset")


class TestSerialisation:
    def test_config_round_trip(self):
        cfg = SimConfig(run_cycles=123, num_channels=2)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_params_round_trip(self):
        params = TCMParams(cluster_thresh=0.25)
        restored = params_from_dict(params_to_dict(params))
        assert restored == params

    def test_none_params_round_trip(self):
        assert params_from_dict(params_to_dict(None)) is None

    def test_point_round_trip_preserves_key(self):
        point = CampaignPoint(
            workload=workloads(1)[0], scheduler="tcm", config=CFG,
            seed=3, params=TCMParams(cluster_thresh=0.1), tag="fig4",
        )
        restored = CampaignPoint.from_dict(point.to_dict())
        assert restored.key == point.key
        assert restored.scheduler == "tcm"
        assert restored.seed == 3
        assert restored.tag == "fig4"
        assert restored.params == point.params

    def test_plan_save_load(self, tmp_path):
        plan = grid_plan("g", workloads(2), ("frfcfs", "tcm"),
                         configs=[CFG])
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = CampaignPlan.load(path)
        assert loaded.name == plan.name
        assert list(loaded.keys) == list(plan.keys)

    def test_tag_not_part_of_key(self):
        w = workloads(1)[0]
        a = CampaignPoint(workload=w, scheduler="tcm", config=CFG, tag="x")
        b = CampaignPoint(workload=w, scheduler="tcm", config=CFG, tag="y")
        assert a.key == b.key
