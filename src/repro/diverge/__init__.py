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
  bisection down to the exact first divergent cycle.

``validate goldens`` fingerprints every golden point's state once per
quantum with :func:`fingerprint_state` and names the first checkpoint
and the components that left the committed recording
(:mod:`repro.validate.goldens`).
"""

from repro.diverge.lockstep import (
    Divergence,
    LockstepResult,
    RunSpec,
    bisect_divergence,
)
from repro.diverge.probe import (
    COMPONENTS,
    StateProbe,
    fingerprint_state,
    snapshot_state,
)

__all__ = [
    "COMPONENTS",
    "Divergence",
    "LockstepResult",
    "RunSpec",
    "StateProbe",
    "bisect_divergence",
    "fingerprint_state",
    "snapshot_state",
]
