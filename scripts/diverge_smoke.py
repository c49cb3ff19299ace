"""CI smoke for the divergence-forensics machinery (docs/DIVERGENCE.md).

Two proofs, end to end, in a few seconds:

1. **Clean lockstep** — a run replayed against a fresh recording of
   its own checkpoints shows no divergence at any checkpoint
   (determinism, witnessed by the probe rather than end-of-run
   fingerprints).
2. **Injected-fault bisection** — a single open-row corruption planted
   at a known cycle is localised by ``bisect_divergence`` to *exactly*
   the cycle it fired, flagging only the ``dram`` component, with the
   state diff naming the corrupted field.  The forensic report JSON,
   its run page (the divergence section) and Perfetto trace are written
   to ``--out`` for upload.

Run from the repo root (the fault shim lives in the test tree):

    PYTHONPATH=src:. python scripts/diverge_smoke.py --out diverge/
"""

import argparse
import json
import sys
from pathlib import Path

from repro.diverge import (
    RunSpec,
    bisect_divergence,
    build_report,
    compare_to_recording,
    export_perfetto,
    record_checkpoints,
    write_report,
)
from repro.obs.dashboard import render_run_page, write_page
from tests.diverge.faults import FaultSpec, faulty_factory

HORIZON = 20_000
CADENCE = 2_000
FAULT_CYCLE = 3_000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="diverge",
                        help="directory for forensic artifacts")
    args = parser.parse_args()
    out = Path(args.out)

    spec = RunSpec(seed=11, num_threads=4, run_cycles=HORIZON)

    recording = record_checkpoints(spec.factory(), HORIZON, CADENCE,
                                   spec=spec)
    clean = compare_to_recording(spec.factory(), recording)
    print(f"clean run vs its recording: {clean.summary()}")
    if clean.diverged:
        print("FAIL: a clean run left its own recording", file=sys.stderr)
        report = build_report(clean, "recording", spec.label(),
                              context={"reason": "clean lockstep FAILED"})
        write_report(report, out / "clean_divergence.json")
        write_page(render_run_page(divergence=report),
                   out / "clean_divergence.html")
        return 1

    fault = FaultSpec(cycle=FAULT_CYCLE, kind="bank_row")
    result = bisect_divergence(
        spec.factory(), faulty_factory(spec, fault), HORIZON, CADENCE
    )
    print(f"injected fault: {result.summary()}")
    divergence = result.divergence
    report = build_report(
        result, label_a=spec.label(), label_b=f"{spec.label()}+fault",
        context={"fault": {"kind": fault.kind, "cycle": fault.cycle,
                           "fired_cycles": fault.fired_cycles}},
    )
    write_report(report, out / "report.json")
    write_page(render_run_page(divergence=report), out / "report.html")
    trace = export_perfetto(report, out / "trace.json")
    print(f"artifacts in {out}/")
    markers = [e for e in json.loads(trace.read_text())["traceEvents"]
               if e["name"] == "FIRST DIVERGENCE"]

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
        if [m["ts"] for m in markers] != [divergence.cycle]:
            failures.append(f"Perfetto trace marks {len(markers)} "
                            f"divergences, expected one at "
                            f"{divergence.cycle}")
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
