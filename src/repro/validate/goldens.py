"""Golden-run regression harness.

A pinned matrix of (scheduler x workload mix x seed) runs is
fingerprinted (see :mod:`repro.validate.fingerprint`) and committed
under ``tests/goldens/``.  Any behavioural change to the simulator —
intended or not — shows up as fingerprint drift; CI fails until the
goldens are regenerated *deliberately* with ``python -m
repro.experiments.cli validate goldens --update`` (see
docs/VALIDATION.md for when that is legitimate).

The matrix is sized to stay cheap (a few seconds) while covering every
registered scheduler, three memory-intensity classes, and several
quanta of TCM clustering/shuffling.

Beside the end-of-run fingerprints, ``tests/goldens/golden_checkpoints.json``
records every point's :mod:`repro.diverge` state fingerprints once per
quantum, so a drift can be placed at the first checkpoint and component
where the run left its recorded path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.validate.fingerprint import (
    Drift,
    compare_fingerprints,
    fingerprint_run,
)
from repro.workloads.mixes import Workload, make_intensity_workload

#: Fingerprint format version; bump on layout changes.
GOLDEN_VERSION = 1

#: Default location of the committed golden matrix.
GOLDEN_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "goldens"
    / "golden_matrix.json"
)

#: Default location of the committed per-quantum checkpoint recording.
GOLDEN_CHECKPOINTS_PATH = GOLDEN_PATH.with_name("golden_checkpoints.json")

#: Every scheduler in the registry, pinned alphabetically.
GOLDEN_SCHEDULERS: Tuple[str, ...] = (
    "atlas", "fcfs", "fqm", "frfcfs", "parbs", "static", "stfm", "tcm",
)

#: Workload mixes: one per memory-intensity class, 8 threads each.
GOLDEN_MIX_INTENSITIES: Tuple[float, ...] = (0.25, 0.5, 1.0)
GOLDEN_MIX_SEED = 7
GOLDEN_THREADS = 8

#: Run seeds per (scheduler, mix) point.
GOLDEN_SEEDS: Tuple[int, ...] = (11,)

#: Small but non-trivial config: 3 quanta, default geometry, so TCM
#: clusters and shuffles and ATLAS completes ranking epochs.
GOLDEN_CONFIG = SimConfig(run_cycles=150_000)


def golden_mixes() -> List[Workload]:
    """The pinned workload mixes of the golden matrix."""
    return [
        make_intensity_workload(
            intensity, num_threads=GOLDEN_THREADS, seed=GOLDEN_MIX_SEED
        )
        for intensity in GOLDEN_MIX_INTENSITIES
    ]


def golden_key(workload: Workload, scheduler: str, seed: int) -> str:
    return f"{workload.name}/{scheduler}/s{seed}"


def compute_golden_matrix(
    config: Optional[SimConfig] = None,
    schedulers: Sequence[str] = GOLDEN_SCHEDULERS,
    mixes: Optional[Sequence[Workload]] = None,
    seeds: Sequence[int] = GOLDEN_SEEDS,
    progress: bool = False,
) -> Dict[str, Dict]:
    """Run the pinned matrix and fingerprint every point.

    Alone runs (for weighted speedup / maximum slowdown) are memoised
    per benchmark by the runner, so the whole matrix costs
    ``len(schedulers) * len(mixes) * len(seeds)`` shared runs plus one
    alone run per distinct benchmark.
    """
    from repro.experiments.runner import alone_ipcs, run_shared

    config = config or GOLDEN_CONFIG
    matrix: Dict[str, Dict] = {}
    for workload in (mixes if mixes is not None else golden_mixes()):
        for seed in seeds:
            alones = alone_ipcs(workload, config, seed)
            for scheduler in schedulers:
                key = golden_key(workload, scheduler, seed)
                if progress:
                    print(f"  golden {key}", flush=True)
                result = run_shared(
                    workload, scheduler, config, seed=seed
                )
                matrix[key] = fingerprint_run(result, alones)
    return matrix


def golden_document(matrix: Dict[str, Dict]) -> Dict:
    """Wrap a matrix with its pinned parameters for the JSON file."""
    return {
        "version": GOLDEN_VERSION,
        "config": {
            "run_cycles": GOLDEN_CONFIG.run_cycles,
            "quantum_cycles": GOLDEN_CONFIG.quantum_cycles,
            "num_threads": GOLDEN_THREADS,
            "mix_intensities": list(GOLDEN_MIX_INTENSITIES),
            "mix_seed": GOLDEN_MIX_SEED,
            "seeds": list(GOLDEN_SEEDS),
        },
        "matrix": matrix,
    }


def save_goldens(matrix: Dict[str, Dict], path=GOLDEN_PATH) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(golden_document(matrix), indent=1, sort_keys=True) + "\n"
    )
    return path


def load_goldens(path=GOLDEN_PATH) -> Dict[str, Dict]:
    document = json.loads(Path(path).read_text())
    if document.get("version") != GOLDEN_VERSION:
        raise ValueError(
            f"golden file {path} has version {document.get('version')}, "
            f"expected {GOLDEN_VERSION} — regenerate with "
            "python -m repro.experiments.cli validate goldens --update"
        )
    return document["matrix"]


def check_goldens(path=GOLDEN_PATH, progress: bool = False) -> List[Drift]:
    """Recompute the matrix and diff it against the committed goldens.

    Returns the drift list (empty = regression-free).
    """
    golden = load_goldens(path)
    fresh = compute_golden_matrix(progress=progress)
    return compare_fingerprints(golden, fresh)


# ----------------------------------------------------------------------
# per-quantum checkpoint recordings
# ----------------------------------------------------------------------


def golden_keys() -> List[str]:
    """Every point of the golden matrix, in matrix order."""
    return [
        golden_key(workload, scheduler, seed)
        for workload in golden_mixes()
        for seed in GOLDEN_SEEDS
        for scheduler in GOLDEN_SCHEDULERS
    ]


def record_golden_checkpoints(progress: bool = False) -> Dict[str, Dict]:
    """Per golden point, :func:`repro.diverge.record_checkpoints` of
    its run: every component fingerprinted once per quantum."""
    from repro.diverge import (
        record_checkpoints,
        resolve_cadence,
        spec_for_golden_key,
    )

    recordings: Dict[str, Dict] = {}
    for key in golden_keys():
        if progress:
            print(f"  checkpoints {key}", flush=True)
        spec = spec_for_golden_key(key)
        recordings[key] = record_checkpoints(
            spec.factory(), spec.run_cycles,
            resolve_cadence("quantum", GOLDEN_CONFIG), spec=spec,
        )
    return recordings


def save_golden_checkpoints(
    recordings: Dict[str, Dict], path=GOLDEN_CHECKPOINTS_PATH
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"version": GOLDEN_VERSION, "points": recordings}
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def load_golden_checkpoints(path=GOLDEN_CHECKPOINTS_PATH) -> Dict[str, Dict]:
    document = json.loads(Path(path).read_text())
    if document.get("version") != GOLDEN_VERSION:
        raise ValueError(
            f"checkpoint file {path} has version "
            f"{document.get('version')}, expected {GOLDEN_VERSION}"
        )
    return document["points"]


# ----------------------------------------------------------------------
# failure triage (exit codes + per-point mismatch table)
# ----------------------------------------------------------------------

#: ``validate goldens`` exit code: fingerprint *values* differ — a
#: behavioural regression.
EXIT_DRIFT = 3

#: ``validate goldens`` exit code: only whole entries or fields are
#: missing/new — the golden file is out of date (matrix reshaped,
#: fingerprint format changed), not a behavioural drift.
EXIT_MISSING = 4

#: Sentinels :mod:`repro.validate.fingerprint` emits for structural
#: (rather than value) mismatches.
_STRUCTURAL_MARKERS = frozenset(("<absent>", "<new entry>", "<entry>"))


def parse_golden_key(key: str):
    """Split a matrix key like ``mix-50pct-s7/tcm/s11`` back into
    ``(mix, scheduler, seed)`` strings."""
    parts = key.rsplit("/", 2)
    if len(parts) != 3:
        return key, "", ""
    mix, scheduler, seed = parts
    return mix, scheduler, seed.lstrip("s")


def is_structural(drift: Drift) -> bool:
    """True when the drift marks an absent/new entry or field rather
    than a changed fingerprint value."""
    return (drift.golden in _STRUCTURAL_MARKERS
            or drift.fresh in _STRUCTURAL_MARKERS)


def classify_drifts(drifts: Sequence[Drift]) -> str:
    """``"drift"`` when any fingerprint *value* changed; ``"missing"``
    when every mismatch is structural (absent/new entries or fields)."""
    for drift in drifts:
        if not is_structural(drift):
            return "drift"
    return "missing"


def drifts_exit_code(drifts: Sequence[Drift]) -> int:
    """The distinct exit code for a failing check: 0 when clean,
    :data:`EXIT_DRIFT` for value drift, :data:`EXIT_MISSING` when only
    matrix structure changed."""
    if not drifts:
        return 0
    return EXIT_DRIFT if classify_drifts(drifts) == "drift" else EXIT_MISSING


def drift_point_rows(drifts: Sequence[Drift]) -> List[List[object]]:
    """Per-point mismatch rows for the CLI table:
    ``[mix, scheduler, seed, field, expected, actual]``."""
    rows: List[List[object]] = []
    for drift in drifts:
        mix, scheduler, seed = parse_golden_key(drift.key)
        rows.append([
            mix, scheduler, seed or "-",
            drift.path or "<entry>",
            repr(drift.golden), repr(drift.fresh),
        ])
    return rows
