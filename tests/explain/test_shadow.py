"""Shadow-policy fidelity: the self-shadow identity and isolation.

The fidelity contract that makes counterfactuals meaningful: a shadow
is fed the *actual* run's arrivals / grants / completions / quantum
snapshots / timer ticks, so a shadow of the same policy as the primary
holds identical internal state at every decision point and therefore
agrees with 100% of grants.  Any policy for which that fails is
leaking state the feed does not carry — and its disagreement counts
against other policies would be noise, not signal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.explain import ShadowSystemView, attach_explain
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.system import System
from repro.workloads import make_intensity_workload
from tests.conftest import sim_configs

CYCLES = 8_000


def _self_shadowed(scheduler, config=None, mix_seed=3, seed=1):
    config = config or SimConfig(run_cycles=CYCLES, num_threads=4,
                                 quantum_cycles=2_000)
    workload = make_intensity_workload(
        0.75, num_threads=config.num_threads, seed=mix_seed
    )
    system = System(workload, make_scheduler(scheduler), config, seed=seed)
    collector = attach_explain(system, shadows=(scheduler,))
    system.run()
    return system, collector


class TestSelfShadowIdentity:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_identity_on_contended_mix(self, scheduler):
        _, collector = _self_shadowed(scheduler)
        shadow = collector.shadows[0]
        assert collector.decisions_total > 0
        assert shadow.agreed == collector.decisions_total, (
            f"{scheduler}: self-shadow disagreed with "
            f"{collector.decisions_total - shadow.agreed} of "
            f"{collector.decisions_total} grants"
        )
        assert shadow.granted == collector.actual_granted

    @given(
        config=sim_configs(max_run_cycles=5_000),
        scheduler=st.sampled_from(sorted(SCHEDULERS)),
        mix_seed=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=30, deadline=None)
    def test_identity_property(self, config, scheduler, mix_seed):
        """For any drawn configuration, the self-shadow is exact."""
        _, collector = _self_shadowed(
            scheduler, config=config, mix_seed=mix_seed, seed=config.seed
        )
        shadow = collector.shadows[0]
        assert shadow.agreed == collector.decisions_total
        assert collector.disagree[0][1] == 0


class TestShadowIsolation:
    def test_view_blocks_metrics_and_tracing(self):
        system = System(
            make_intensity_workload(0.75, num_threads=4, seed=3),
            make_scheduler("tcm"),
            SimConfig(run_cycles=1_000, num_threads=4),
            seed=1,
        )
        view = ShadowSystemView(system, 0)
        assert view._tracer is None
        # the forwarded surface is live
        assert view.workload is system.workload
        assert view.config is system.config
        assert view.now == system.now

    def test_view_surface_is_explicit(self):
        system = System(
            make_intensity_workload(0.75, num_threads=4, seed=3),
            make_scheduler("tcm"),
            SimConfig(run_cycles=1_000, num_threads=4),
            seed=1,
        )
        view = ShadowSystemView(system, 0)
        with pytest.raises(AttributeError):
            view.sched_decisions  # not part of what a policy may read

    def test_parbs_shadow_leaves_requests_unmarked(self):
        """PAR-BS batch marks on real request objects would leak shadow
        state into the primary's decisions; the shadow variant keeps
        them in a private id set instead."""
        # run with a PAR-BS shadow riding a TCM primary and compare
        # against the shadow-free result: byte-identical means the
        # shadow touched nothing the primary reads
        plain = System(
            make_intensity_workload(0.75, num_threads=4, seed=3),
            make_scheduler("tcm"),
            SimConfig(run_cycles=CYCLES, num_threads=4,
                      quantum_cycles=2_000),
            seed=1,
        ).run()
        shadowed_system = System(
            make_intensity_workload(0.75, num_threads=4, seed=3),
            make_scheduler("tcm"),
            SimConfig(run_cycles=CYCLES, num_threads=4,
                      quantum_cycles=2_000),
            seed=1,
        )
        shadowed = attach_explain(shadowed_system, shadows=("parbs",))
        result = shadowed_system.run()
        assert result.total_requests == plain.total_requests
        assert result.ipcs == plain.ipcs
        assert sum(shadowed.shadows[0].granted) == \
            shadowed.decisions_total

    def test_stfm_shadow_rides_shared_accounting(self):
        """An STFM shadow keeps its own interference books; attaching it
        on a run without spans must neither crash nor perturb the run."""
        plain = System(
            make_intensity_workload(0.75, num_threads=4, seed=3),
            make_scheduler("tcm"),
            SimConfig(run_cycles=CYCLES, num_threads=4,
                      quantum_cycles=2_000),
            seed=1,
        ).run()
        system = System(
            make_intensity_workload(0.75, num_threads=4, seed=3),
            make_scheduler("tcm"),
            SimConfig(run_cycles=CYCLES, num_threads=4,
                      quantum_cycles=2_000),
            seed=1,
        )
        collector = attach_explain(system, shadows=("stfm",))
        result = system.run()
        assert result.total_requests == plain.total_requests
        assert result.ipcs == plain.ipcs
        assert collector.shadows[0].agreed <= collector.decisions_total


class TestMultiShadow:
    def test_labels_and_matrix_cover_all_policies(self):
        system = System(
            make_intensity_workload(0.75, num_threads=4, seed=3),
            make_scheduler("tcm"),
            SimConfig(run_cycles=CYCLES, num_threads=4,
                      quantum_cycles=2_000),
            seed=1,
        )
        shadows = ("frfcfs", "atlas", "stfm")
        collector = attach_explain(system, shadows=shadows)
        system.run()
        assert collector.labels == [
            system.scheduler.name,
            "shadow:frfcfs", "shadow:atlas", "shadow:stfm",
        ]
        assert len(collector.disagree) == 4
        # shadow timers (ATLAS quantum timers ride the event queue) are
        # routed back to the owning shadow, never the primary
        assert collector.decisions_total == system.sched_decisions
