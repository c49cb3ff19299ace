"""Lockstep comparison and first-divergence bisection.

The acceptance bar: a single injected corruption at a known cycle must
be localised by the bisector to *exactly* that cycle and component on
the first try, with the state diff naming the corrupted field.
"""

import pytest

from repro.diverge import RunSpec, bisect_divergence
from tests.diverge.faults import FaultSpec, faulty_factory

CYCLES = 20_000
CADENCE = 2_000

SPEC = RunSpec(seed=11, num_threads=4, run_cycles=CYCLES)


class TestLockstepCompare:
    def test_identical_runs_never_diverge(self):
        result = bisect_divergence(
            SPEC.factory(), SPEC.factory(), CYCLES, CADENCE
        )
        assert not result.diverged
        assert result.checkpoints == CYCLES // CADENCE
        assert result.rounds == 1
        assert "no divergence" in result.summary()

    def test_bisection_reaches_exact_first_cycle(self):
        other = RunSpec(seed=12, num_threads=4, run_cycles=CYCLES)
        result = bisect_divergence(
            SPEC.factory(), other.factory(), CYCLES, CADENCE
        )
        divergence = result.divergence
        assert divergence.exact
        # different seeds change the very first issue gap
        assert divergence.cycle == 1
        assert result.rounds > 1


class TestFaultLocalisation:
    @pytest.mark.parametrize("kind,component", [
        ("bank_row", "dram"),
        ("event_delay", "events"),
        ("rng_draw", "rng"),
    ])
    def test_fault_bisected_to_exact_cycle(self, kind, component):
        fault = FaultSpec(cycle=3_000, kind=kind)
        result = bisect_divergence(
            SPEC.factory(), faulty_factory(SPEC, fault), CYCLES, CADENCE
        )
        divergence = result.divergence
        assert divergence is not None and divergence.exact
        assert fault.fired_cycles, "fault never fired"
        assert divergence.cycle == fault.fired_cycles[0]
        assert component in divergence.components

    def test_bank_row_diff_names_the_corrupted_field(self):
        fault = FaultSpec(cycle=3_000, kind="bank_row", channel=0, bank=0)
        result = bisect_divergence(
            SPEC.factory(), faulty_factory(SPEC, fault), CYCLES, CADENCE
        )
        paths = [entry["path"] for entry in result.divergence.diff]
        assert "dram.[0].banks[0].open_row" in paths

    def test_nondeterministic_factory_rejected(self):
        # a fault armed on a *shared* spec fires only in round one;
        # the refinement re-run then sees no divergence and must raise
        fault = FaultSpec(cycle=3_000, kind="bank_row")

        def once_faulty():
            from tests.diverge.faults import install_fault

            return install_fault(SPEC.build(), fault)

        with pytest.raises(RuntimeError, match="deterministic"):
            bisect_divergence(
                SPEC.factory(), once_faulty, CYCLES, CADENCE
            )
