"""Forensic reports for a localised divergence.

Turns a :class:`~repro.diverge.lockstep.LockstepResult` into:

* a structured JSON document (schema ``repro.diverge.report/v1``):
  the divergence location, per-component fingerprints of both sides,
  the field-level state diff, and both sides' event/decision ring
  buffers;
* an optional Chrome ``trace_event`` export (loadable at
  https://ui.perfetto.dev), written by telemetry's one Perfetto writer
  (:func:`repro.telemetry.sinks.write_perfetto`), laying both sides'
  last events and grants on parallel tracks with a global "FIRST
  DIVERGENCE" marker at the localised cycle;
* the divergence section of the no-JS run page
  (``render_run_page(divergence=report)`` in :mod:`repro.obs.dashboard`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.diverge.lockstep import LockstepResult
from repro.telemetry.sinks import track_name, write_perfetto

REPORT_SCHEMA = "repro.diverge.report/v1"

#: State-diff entries carried in the report (the full snapshots are
#: included separately; the diff is the readable part).
MAX_DIFF_ENTRIES = 200


def build_report(
    result: LockstepResult,
    label_a: str = "a",
    label_b: str = "b",
    context: Optional[dict] = None,
) -> dict:
    """One self-contained JSON document describing the comparison."""
    report = {
        "schema": REPORT_SCHEMA,
        "label_a": label_a,
        "label_b": label_b,
        "diverged": result.diverged,
        "horizon": result.horizon,
        "cadence": result.cadence,
        "checkpoints": result.checkpoints,
        "rounds": result.rounds,
        "summary": result.summary(),
        "context": context or {},
    }
    divergence = result.divergence
    if divergence is not None:
        diff = divergence.diff
        report["divergence"] = {
            "cycle": divergence.cycle,
            "last_match": divergence.last_match,
            "exact": divergence.exact,
            "components": divergence.components,
            "fingerprint_a": divergence.fingerprint_a,
            "fingerprint_b": divergence.fingerprint_b,
            "diff": diff[:MAX_DIFF_ENTRIES],
            "diff_truncated": max(0, len(diff) - MAX_DIFF_ENTRIES),
            "snapshot_a": divergence.snapshot_a,
            "snapshot_b": divergence.snapshot_b,
            "rings_a": divergence.rings_a,
            "rings_b": divergence.rings_b,
        }
    return report


def write_report(report: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return path


def load_report(path) -> dict:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"not a diverge report (schema {report.get('schema')!r})"
        )
    return report


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------

def _side_events(trace: list, pid: int, label: str, rings: dict) -> None:
    trace += [track_name(pid, label), track_name(pid, "events", 1),
              track_name(pid, "decisions", 2)]
    for time, kind, payload, aux in rings.get("events", ()):
        trace.append({
            "ph": "i", "s": "t", "pid": pid, "tid": 1, "ts": time,
            "name": kind,
            "args": {"payload": payload, "aux": aux},
        })
    for decision in rings.get("decisions", ()):
        trace.append({
            "ph": "X", "pid": pid, "tid": 2,
            "ts": decision["cycle"],
            "dur": max(1, decision["data_end"] - decision["cycle"]),
            "name": (
                f"grant t{decision['tid']} "
                f"ch{decision['ch']}/b{decision['bank']}"
            ),
            "args": decision,
        })


def export_perfetto(report: dict, path) -> Path:
    """Chrome trace_event JSON: both sides' forensic rings on parallel
    process tracks, divergence marked as a global instant."""
    trace: list = []
    divergence = report.get("divergence")
    _side_events(
        trace, 1, f"side A: {report['label_a']}",
        (divergence or {}).get("rings_a", {}),
    )
    _side_events(
        trace, 2, f"side B: {report['label_b']}",
        (divergence or {}).get("rings_b", {}),
    )
    if divergence is not None:
        trace.append({
            "ph": "i", "s": "g", "pid": 1, "tid": 1,
            "ts": divergence["cycle"],
            "name": "FIRST DIVERGENCE",
            "args": {
                "components": divergence["components"],
                "last_match": divergence["last_match"],
                "exact": divergence["exact"],
            },
        })
    return write_perfetto(trace, path)
