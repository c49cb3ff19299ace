"""CI smoke for the bisector (docs/DIVERGENCE.md).

A single open-row corruption planted at a known cycle must be
localised by ``bisect_divergence`` to *exactly* the cycle it fired,
flagging only the ``dram`` component, with the state diff naming the
corrupted field.  (Clean runs are checked against recorded
checkpoints by ``validate goldens``, which replays every golden
point.)

Run from the repo root (the fault shim lives in the test tree):

    PYTHONPATH=src:. python scripts/diverge_smoke.py
"""

import sys

from repro.diverge import RunSpec, bisect_divergence
from tests.diverge.faults import FaultSpec, faulty_factory

HORIZON = 20_000
CADENCE = 2_000
FAULT_CYCLE = 3_000


def main() -> int:
    spec = RunSpec(seed=11, num_threads=4, run_cycles=HORIZON)
    fault = FaultSpec(cycle=FAULT_CYCLE, kind="bank_row")
    result = bisect_divergence(
        spec.factory(), faulty_factory(spec, fault), HORIZON, CADENCE
    )
    print(f"injected fault: {result.summary()}")
    divergence = result.divergence

    failures = []
    if divergence is None:
        failures.append("fault produced no divergence")
    else:
        if not divergence.exact:
            failures.append(f"localisation not exact: {result.summary()}")
        if not fault.fired_cycles:
            failures.append("fault never fired")
        elif divergence.cycle != fault.fired_cycles[0]:
            failures.append(
                f"localised to {divergence.cycle}, fault fired at "
                f"{fault.fired_cycles[0]}"
            )
        if divergence.components != ["dram"]:
            failures.append(
                f"expected only dram to differ, got {divergence.components}"
            )
        paths = [entry["path"] for entry in divergence.diff]
        if "dram.[0].banks[0].open_row" not in paths:
            failures.append(f"diff does not name the corrupted field: "
                            f"{paths[:5]}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"OK: fault at cycle {fault.fired_cycles[0]} localised "
              f"exactly; diff names dram.[0].banks[0].open_row")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
