"""repro.validate — the simulator's correctness-tooling subsystem.

Three pillars, none of which touch a simulation that does not opt in:

* :mod:`repro.validate.oracle` — a **runtime invariant oracle** that
  attaches to one :class:`~repro.sim.system.System` and checks request
  conservation, DRAM timing legality, row-buffer state consistency,
  bounded starvation and per-scheduler policy invariants as the run
  executes.
* :mod:`repro.validate.differential` — **differential and metamorphic
  validation**: the same workload through every scheduler with
  scheduler-independent assertions, plus transform-based checks (seed
  determinism, thread-permutation equivariance).
* :mod:`repro.validate.goldens` — a **golden-run regression harness**:
  compact result fingerprints for a pinned (scheduler x mix x seed)
  matrix and each point's state fingerprints per quantum, committed
  under ``tests/goldens/`` and compared in CI by one run per point.

See docs/VALIDATION.md for the full catalogue of checks and the golden
regeneration policy.
"""

from __future__ import annotations

from repro.validate.differential import (
    RANK_REDUCIBLE,
    assert_permutation_equivariance,
    assert_seed_determinism,
    assert_single_thread_consistency,
    differential_groups,
    permute_workload,
    run_matrix,
    run_outcome,
    single_thread_matrix,
    thread_outcome,
)
from repro.validate.fingerprint import (
    FLOAT_DIGITS,
    Drift,
    compare_fingerprints,
    fingerprint_run,
    format_drift_report,
)
from repro.validate.goldens import (
    EXIT_DRIFT,
    EXIT_MISSING,
    GOLDEN_CHECKPOINTS_PATH,
    GOLDEN_CONFIG,
    GOLDEN_PATH,
    GOLDEN_SCHEDULERS,
    GOLDEN_SEEDS,
    GoldenFileError,
    check_goldens,
    checkpoint_departures,
    checkpoints_path,
    classify_drifts,
    compute_golden_matrix,
    drift_point_rows,
    drifts_exit_code,
    golden_document,
    golden_drifts,
    golden_key,
    golden_mixes,
    is_structural,
    load_golden_checkpoints,
    load_golden_files,
    load_goldens,
    parse_golden_key,
    run_golden_point,
    save_golden_checkpoints,
    save_goldens,
)
from repro.validate.oracle import (
    InvariantOracle,
    InvariantViolation,
    OracleConfig,
    OracleReport,
    attach_oracle,
    checked_run,
)

__all__ = [
    "Drift",
    "EXIT_DRIFT",
    "EXIT_MISSING",
    "FLOAT_DIGITS",
    "GOLDEN_CHECKPOINTS_PATH",
    "GOLDEN_CONFIG",
    "GOLDEN_PATH",
    "GOLDEN_SCHEDULERS",
    "GOLDEN_SEEDS",
    "GoldenFileError",
    "InvariantOracle",
    "InvariantViolation",
    "OracleConfig",
    "OracleReport",
    "RANK_REDUCIBLE",
    "assert_permutation_equivariance",
    "assert_seed_determinism",
    "assert_single_thread_consistency",
    "attach_oracle",
    "check_goldens",
    "checked_run",
    "checkpoint_departures",
    "checkpoints_path",
    "classify_drifts",
    "compare_fingerprints",
    "compute_golden_matrix",
    "differential_groups",
    "drift_point_rows",
    "drifts_exit_code",
    "fingerprint_run",
    "format_drift_report",
    "golden_document",
    "golden_drifts",
    "golden_key",
    "golden_mixes",
    "is_structural",
    "load_golden_checkpoints",
    "load_golden_files",
    "load_goldens",
    "parse_golden_key",
    "permute_workload",
    "run_golden_point",
    "run_matrix",
    "run_outcome",
    "save_golden_checkpoints",
    "save_goldens",
    "single_thread_matrix",
    "thread_outcome",
]
