"""Benchmark-history store: the simulator's perf trajectory on disk.

``BENCH_history.json`` (repo root) is an append-only list of structured
benchmark records under a versioned envelope::

    {"format": "repro.prof.history/v1",
     "records": [{"bench": "engine_speed[tcm]",
                  "family": "engine_speed",
                  "wall_s": {"median": ..., "best": ..., "rounds": [...]},
                  "events_per_sec": ..., "requests_per_sec": ...,
                  "machine": {...}, "git_sha": "...", ...}, ...]}

Every record carries a machine fingerprint and the git SHA it was
measured at (``git_dirty`` marks a measurement of uncommitted changes
to tracked files, shown as ``33bea3ac*``), so :func:`compare` can tell
a genuine regression from a different machine: records from different
fingerprints yield a ``fingerprint-mismatch`` verdict (warn, never
fail) instead of a bogus ratio.

The regression gate: :func:`compare` takes the **median** of a record's
rounds (robust against one noisy round), a configurable tolerance
(default ±5%), and returns ``improvement`` / ``ok`` / ``regression`` /
``fingerprint-mismatch``.  Callers decide severity; the convention
throughout the repo is *warn by default, fail under*
``REPRO_BENCH_STRICT=1``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

FORMAT = "repro.prof.history/v1"

#: default relative path of the committed history (repo root)
DEFAULT_HISTORY = "BENCH_history.json"

#: default regression tolerance on the median wall-time ratio
DEFAULT_TOLERANCE = 1.05

VERDICT_IMPROVEMENT = "improvement"
VERDICT_OK = "ok"
VERDICT_REGRESSION = "regression"
VERDICT_MISMATCH = "fingerprint-mismatch"


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------

def machine_fingerprint() -> Dict[str, object]:
    """Stable identity of the measuring machine (not of the workload)."""
    return {
        "platform": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "impl": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 0,
    }


def same_machine(a: Optional[dict], b: Optional[dict]) -> bool:
    """Whether two fingerprints identify comparable measurements."""
    if not a or not b:
        return False
    keys = ("platform", "machine", "python", "impl", "cpu_count")
    return all(a.get(k) == b.get(k) for k in keys)


def _git(args: List[str], cwd: Optional[str]) -> Optional[str]:
    """``git args`` output, or ``None`` when git fails (no work tree)."""
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit SHA, or ``None`` outside a work tree."""
    sha = (_git(["rev-parse", "HEAD"], cwd) or "").strip()
    return sha or None


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether tracked files differ from the commit :func:`git_sha`
    names, so a record measured now measured uncommitted code; ``None``
    outside a work tree.

    The history file itself is left out: appending one record must not
    mark the next one of the same session.
    """
    status = _git(["status", "--porcelain", "--untracked-files=no", "--",
                   ":/", f":(top,exclude){DEFAULT_HISTORY}"], cwd)
    return None if status is None else bool(status.strip())


def short_sha(record: dict) -> str:
    """A record's SHA for tables: 9 characters, the last a ``*`` when
    it was measured on a modified tree (``33bea3ac*``)."""
    sha = record.get("git_sha") or "?"
    return sha[:8] + "*" if record.get("git_dirty") else sha[:9]


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------

def make_record(
    bench: str,
    family: str,
    rounds_s: List[float],
    tolerance: float = DEFAULT_TOLERANCE,
    extra: Optional[dict] = None,
    **metrics,
) -> dict:
    """Build one v1 record from raw per-round wall times.

    ``metrics`` are scalar facts about the run (``events_per_sec``,
    ``requests``, ``cycles``, ...); ``extra`` holds structured payloads
    such as component shares.  Timestamps are deliberately coarse
    (date only) — the git SHA is the real provenance.
    """
    import datetime

    if not rounds_s:
        raise ValueError("a record needs at least one timing round")
    record = {
        "bench": bench,
        "family": family,
        "wall_s": {
            "median": statistics.median(rounds_s),
            "best": min(rounds_s),
            "rounds": list(rounds_s),
        },
        "tolerance": tolerance,
        "machine": machine_fingerprint(),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "recorded_on": datetime.date.today().isoformat(),
    }
    record.update(metrics)
    if extra:
        record["extra"] = extra
    return record


def load(path) -> List[dict]:
    """Read a v1 history file; missing file -> empty list."""
    p = Path(path)
    if not p.exists():
        return []
    doc = json.loads(p.read_text())
    if isinstance(doc, dict) and doc.get("format") == FORMAT:
        return list(doc.get("records", []))
    raise ValueError(f"{p}: not a {FORMAT} file")


def append(path, record: dict) -> int:
    """Append one record (append-only); returns the new record count."""
    p = Path(path)
    records = load(p) if p.exists() else []
    records.append(record)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(
        json.dumps({"format": FORMAT, "records": records}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    return len(records)


def latest(records: List[dict], bench: str) -> Optional[dict]:
    """The most recently appended record for ``bench``, if any."""
    for record in reversed(records):
        if record.get("bench") == bench:
            return record
    return None


def benches(records: List[dict]) -> List[str]:
    """Distinct bench names in first-appearance order."""
    seen: List[str] = []
    for record in records:
        name = record.get("bench")
        if name and name not in seen:
            seen.append(name)
    return seen


# ----------------------------------------------------------------------
# comparison / regression verdicts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing a new record against a baseline record."""

    bench: str
    verdict: str  # improvement | ok | regression | fingerprint-mismatch
    ratio: Optional[float]  # new median / baseline median
    baseline_median: Optional[float]
    new_median: Optional[float]
    tolerance: float
    message: str

    @property
    def comparable(self) -> bool:
        return self.verdict != VERDICT_MISMATCH

    @property
    def failed(self) -> bool:
        """True only for a genuine regression on the same machine."""
        return self.verdict == VERDICT_REGRESSION


def compare(baseline: dict, new: dict,
            tolerance: Optional[float] = None) -> Verdict:
    """Median-of-rounds comparison of two records for the same bench.

    ``tolerance`` defaults to the baseline record's own (then 1.05).
    Ratios above it are regressions, below its reciprocal are
    improvements, anything else is ``ok``.  Records measured on
    different machines are never compared numerically.
    """
    bench = new.get("bench") or baseline.get("bench") or "?"
    tol = tolerance if tolerance is not None else float(
        baseline.get("tolerance", DEFAULT_TOLERANCE)
    )
    if not same_machine(baseline.get("machine"), new.get("machine")):
        return Verdict(
            bench, VERDICT_MISMATCH, None,
            baseline.get("wall_s", {}).get("median"),
            new.get("wall_s", {}).get("median"), tol,
            "different machine fingerprints; timings not comparable "
            "(warn only)",
        )
    base_median = float(baseline["wall_s"]["median"])
    new_median = float(new["wall_s"]["median"])
    ratio = new_median / base_median if base_median > 0 else float("inf")
    if ratio > tol:
        verdict = VERDICT_REGRESSION
        message = (f"median {new_median:.4f}s is {ratio:.3f}x the "
                   f"baseline {base_median:.4f}s (limit {tol:.2f}x)")
    elif ratio < 1.0 / tol:
        verdict = VERDICT_IMPROVEMENT
        message = (f"median {new_median:.4f}s improved to {ratio:.3f}x "
                   f"of baseline {base_median:.4f}s")
    else:
        verdict = VERDICT_OK
        message = (f"median {new_median:.4f}s within tolerance "
                   f"({ratio:.3f}x of {base_median:.4f}s)")
    return Verdict(bench, verdict, ratio, base_median, new_median, tol,
                   message)


def compare_histories(
    baseline_path, new_path, tolerance: Optional[float] = None
) -> List[Verdict]:
    """Compare the latest record per bench across two history files.

    With identical paths, compares each bench's last record against
    its previous one (the in-file trajectory).  Benches present on one
    side only are skipped — there is nothing to regress against.
    """
    baseline_records = load(baseline_path)
    if Path(baseline_path).resolve() == Path(new_path).resolve():
        verdicts = []
        for bench in benches(baseline_records):
            history = [r for r in baseline_records
                       if r.get("bench") == bench]
            if len(history) >= 2:
                verdicts.append(
                    compare(history[-2], history[-1], tolerance)
                )
        return verdicts
    new_records = load(new_path)
    verdicts = []
    for bench in benches(new_records):
        base = latest(baseline_records, bench)
        new = latest(new_records, bench)
        if base is not None and new is not None:
            verdicts.append(compare(base, new, tolerance))
    return verdicts


def strict_mode() -> bool:
    """The repo-wide opt-in for failing (not warning) on regressions."""
    return os.environ.get("REPRO_BENCH_STRICT") == "1"
