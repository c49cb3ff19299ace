"""Lockstep comparison and first-divergence bisection.

The acceptance bar: a single injected corruption at a known cycle must
be localised by the bisector to *exactly* that cycle and component on
the first try, with the state diff naming the corrupted field.
"""

import pytest

from repro.diverge import (
    RunSpec,
    bisect_divergence,
    compare_to_recording,
    lockstep_compare,
    record_checkpoints,
    resolve_cadence,
    spec_for_golden_key,
)
from repro.config import SimConfig
from tests.diverge.faults import FaultSpec, faulty_factory

CYCLES = 20_000
CADENCE = 2_000

SPEC = RunSpec(seed=11, num_threads=4, run_cycles=CYCLES)


class TestLockstepCompare:
    def test_identical_runs_never_diverge(self):
        result = lockstep_compare(
            SPEC.factory(), SPEC.factory(), CYCLES, CADENCE
        )
        assert not result.diverged
        assert result.checkpoints == CYCLES // CADENCE
        assert "no divergence" in result.summary()

    def test_seed_change_detected_at_first_checkpoint(self):
        other = RunSpec(seed=12, num_threads=4, run_cycles=CYCLES)
        result = lockstep_compare(
            SPEC.factory(), other.factory(), CYCLES, CADENCE
        )
        assert result.diverged
        assert result.divergence.cycle == CADENCE
        assert result.divergence.last_match == 0
        assert not result.divergence.exact

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


class TestCadence:
    def test_resolve_cadence(self):
        config = SimConfig()
        assert resolve_cadence(None, config) == config.quantum_cycles
        assert resolve_cadence("quantum", config) == config.quantum_cycles
        assert resolve_cadence("cycle", config) == 1
        assert resolve_cadence(500, config) == 500
        assert resolve_cadence("500", config) == 500
        with pytest.raises(ValueError):
            resolve_cadence(0, config)


class TestRecordings:
    def test_record_and_match(self, tmp_path):
        path = tmp_path / "baseline.json"
        recording = record_checkpoints(
            SPEC.factory(), CYCLES, CADENCE, path=path, spec=SPEC
        )
        assert path.exists()
        assert len(recording["checkpoints"]) == CYCLES // CADENCE
        result = compare_to_recording(SPEC.factory(), recording)
        assert not result.diverged

    def test_live_drift_against_recording(self):
        recording = record_checkpoints(SPEC.factory(), CYCLES, CADENCE)
        fault = FaultSpec(cycle=3_000, kind="bank_row")
        result = compare_to_recording(
            faulty_factory(SPEC, fault), recording
        )
        assert result.diverged
        divergence = result.divergence
        # localisation stops at the recording's cadence
        assert divergence.last_match < fault.fired_cycles[0] \
            <= divergence.cycle
        assert "dram" in divergence.components
        assert divergence.diff == []  # baselines store hashes only

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="recording"):
            compare_to_recording(SPEC.factory(), {"schema": "nope"})


class TestGoldenBridge:
    def test_spec_round_trips_a_golden_key(self):
        spec = spec_for_golden_key("mix-50pct-s7/tcm/s11")
        assert spec.scheduler == "tcm"
        assert spec.intensity == 0.5
        assert spec.mix_seed == 7
        assert spec.seed == 11
        spec.build()  # must construct

    def test_garbage_key_rejected(self):
        with pytest.raises(ValueError):
            spec_for_golden_key("not-a-key")
