"""repro.diverge — divergence forensics for simulated runs.

Turns "the runs/seeds/configs diverged" into "the first divergent
cycle is N, these components differ, here is the field-level diff and
the last events on each side":

* :mod:`repro.diverge.probe` — canonical state snapshots and
  per-component fingerprints of a live system (pending events, DRAM
  banks, CPU columns, RNG cursors, monitor, scheduler
  ``state_digest``), attached through the one-branch-when-off
  observer seams.
* :mod:`repro.diverge.lockstep` — checkpoint-by-checkpoint
  differential execution of two runs, with geometric re-execution
  bisection down to the exact first divergent cycle, plus recorded
  fingerprint baselines.
* :mod:`repro.diverge.report` — forensic JSON reports and Perfetto
  export with the divergence marked; the run page
  (:func:`repro.obs.dashboard.render_run_page`) draws a report as its
  divergence section.

CLI: ``python -m repro.experiments.cli diverge run|bisect|report``.
"""

from repro.diverge.lockstep import (
    Divergence,
    LockstepResult,
    RunSpec,
    bisect_divergence,
    compare_to_recording,
    lockstep_compare,
    record_checkpoints,
    resolve_cadence,
    spec_for_golden_key,
)
from repro.diverge.probe import (
    COMPONENTS,
    StateProbe,
    fingerprint_state,
    snapshot_state,
)
from repro.diverge.report import (
    build_report,
    export_perfetto,
    load_report,
    write_report,
)

__all__ = [
    "COMPONENTS",
    "Divergence",
    "LockstepResult",
    "RunSpec",
    "StateProbe",
    "bisect_divergence",
    "build_report",
    "compare_to_recording",
    "export_perfetto",
    "fingerprint_state",
    "load_report",
    "lockstep_compare",
    "record_checkpoints",
    "resolve_cadence",
    "snapshot_state",
    "spec_for_golden_key",
    "write_report",
]
