"""Regenerate (or verify) the golden-run regression matrix.

The golden matrix under ``tests/goldens/golden_matrix.json`` pins
result fingerprints for every registered scheduler across three
memory-intensity mixes (see :mod:`repro.validate.goldens`), and
``tests/goldens/golden_checkpoints.json`` records each point's state
fingerprints once per quantum.  CI fails when the simulator's
behaviour drifts from these fingerprints; after an *intended*
behavioural change, rerun this script and commit the updated files
together with the change that caused it (the diff report below
belongs in the commit message).

    PYTHONPATH=src python scripts/update_goldens.py           # regenerate
    PYTHONPATH=src python scripts/update_goldens.py --check   # verify only

``--check`` recomputes the matrix, prints a field-level drift report
plus a per-point mismatch table, and exits non-zero on any drift —
**3** when fingerprint values differ (behavioural/parity drift), **4**
when only the matrix structure changed (goldens out of date) — this is
what CI runs; ``--forensics DIR`` additionally replays the first
drifting point against its recorded checkpoints (see
docs/DIVERGENCE.md), reporting the first checkpoint and component that
left the recording, and writes the forensic artifacts there for
upload.  Regeneration rewrites both files (the recording only when
``--path`` is not given).
"""
import argparse
import sys

from repro.experiments.reporting import format_table
from repro.validate import (
    GOLDEN_PATH,
    check_goldens,
    compare_fingerprints,
    compute_golden_matrix,
    drift_point_rows,
    drifts_exit_code,
    format_drift_report,
    load_goldens,
    record_golden_checkpoints,
    save_golden_checkpoints,
    save_goldens,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify against the committed goldens instead "
                             "of rewriting them; exit 1 on drift")
    parser.add_argument("--path", default=None,
                        help=f"golden matrix file (default {GOLDEN_PATH})")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress output")
    parser.add_argument("--forensics", default=None,
                        help="--check only: on drift, replay the first "
                             "failing point against its recorded "
                             "checkpoints and write forensic artifacts "
                             "to this directory")
    args = parser.parse_args()
    path = args.path or GOLDEN_PATH
    progress = not args.quiet

    if args.check:
        drifts = check_goldens(path, progress=progress)
        if drifts:
            print(format_drift_report(drifts))
            print()
            print(format_table(
                ["mix", "scheduler", "seed", "field", "expected",
                 "actual"],
                drift_point_rows(drifts),
                title="golden mismatches by point",
            ))
            if args.forensics:
                from repro.experiments.cli import _goldens_forensics

                _goldens_forensics(drifts, args.forensics)
            code = drifts_exit_code(drifts)
            print(
                f"\nexit {code}: "
                + ("fingerprint drift — behaviour changed"
                   if code == 3 else
                   "matrix structure changed — goldens out of date")
                + "\nIf this drift is an intended behavioural change, "
                "regenerate with:\n"
                "    PYTHONPATH=src python scripts/update_goldens.py"
            )
            return code
        print("goldens: no drift")
        return 0

    fresh = compute_golden_matrix(progress=progress)
    try:
        drifts = compare_fingerprints(load_goldens(path), fresh)
    except (FileNotFoundError, ValueError):
        drifts = None   # first generation or format change
    where = save_goldens(fresh, path)
    if drifts is None:
        print(f"wrote {where} ({len(fresh)} points, no previous matrix)")
    elif drifts:
        print(format_drift_report(drifts))
        print(f"\nwrote {where} ({len(fresh)} points, "
              f"{len(drifts)} fields changed)")
    else:
        print(f"wrote {where} ({len(fresh)} points, unchanged)")
    if args.path is None:
        where = save_golden_checkpoints(
            record_golden_checkpoints(progress=progress)
        )
        print(f"wrote {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
