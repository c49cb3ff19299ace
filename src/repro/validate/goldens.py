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

Each point runs once (:func:`run_golden_point`), a quantum at a time.
Its end-of-run fingerprint is checked against ``golden_matrix.json``
and its :mod:`repro.diverge` state fingerprints at every quantum
boundary against ``golden_checkpoints.json`` beside it, so a drift is
placed at the first checkpoint and the components where the run left
its recorded path (:func:`checkpoint_departures`).
"""

from __future__ import annotations

import json
from dataclasses import replace
from operator import attrgetter
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

#: The committed per-quantum checkpoint recording; a matrix file's
#: recording is always the file of this name beside it.
GOLDEN_CHECKPOINTS_PATH = GOLDEN_PATH.with_name("golden_checkpoints.json")

#: Schema tag of each point's checkpoint recording.
RECORDING_SCHEMA = "repro.diverge.recording/v1"

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

#: How to regenerate the golden files, for error messages.
UPDATE_HINT = (
    "regenerate with python -m repro.experiments.cli validate goldens "
    "--update"
)


class GoldenFileError(ValueError):
    """A golden file is missing, not JSON or of another format
    version."""


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


def golden_keys() -> List[str]:
    """Every point of the golden matrix, in matrix order."""
    return [
        golden_key(workload, scheduler, seed)
        for workload in golden_mixes()
        for seed in GOLDEN_SEEDS
        for scheduler in GOLDEN_SCHEDULERS
    ]


def run_golden_point(workload: Workload, scheduler: str, seed: int):
    """Run one golden point once, a quantum at a time, with no observer
    attached.

    Returns its :class:`~repro.sim.results.RunResult` and its
    :func:`repro.diverge.fingerprint_state` after every quantum's
    ``advance``, keyed by that cycle as a string.  Stepping does not
    change a run, so the result equals a plain ``System.run``'s.
    """
    from repro.diverge import fingerprint_state
    from repro.schedulers import make_scheduler
    from repro.sim import System

    config = GOLDEN_CONFIG
    system = System(workload, make_scheduler(scheduler), config, seed=seed)
    system.start_run()
    checkpoints: Dict[str, Dict[str, str]] = {}
    cycle = 0
    while cycle < config.run_cycles:
        cycle = min(cycle + config.quantum_cycles, config.run_cycles)
        system.advance(cycle)
        checkpoints[str(cycle)] = fingerprint_state(system)
    return system.finish_run(config.run_cycles), checkpoints


def compute_golden_matrix(
    progress: bool = False,
) -> Tuple[Dict[str, Dict], Dict[str, Dict]]:
    """Run every golden point once and return ``(matrix, recordings)``:
    each point's end-of-run fingerprint, and its checkpoint recording.

    A recording's ``spec`` rebuilds the point's run
    (``RunSpec(**spec).build()``, see :mod:`repro.diverge`).  Alone
    runs (for weighted speedup / maximum slowdown) are memoised per
    benchmark by the runner, so the matrix costs one shared run per
    point plus one alone run per distinct benchmark.
    """
    from repro.diverge import COMPONENTS, RunSpec
    from repro.experiments.runner import alone_ipcs

    matrix: Dict[str, Dict] = {}
    recordings: Dict[str, Dict] = {}
    for intensity, workload in zip(GOLDEN_MIX_INTENSITIES, golden_mixes()):
        for seed in GOLDEN_SEEDS:
            alones = alone_ipcs(workload, GOLDEN_CONFIG, seed)
            for scheduler in GOLDEN_SCHEDULERS:
                key = golden_key(workload, scheduler, seed)
                if progress:
                    print(f"  golden {key}", flush=True)
                result, checkpoints = run_golden_point(
                    workload, scheduler, seed
                )
                matrix[key] = fingerprint_run(result, alones)
                spec = RunSpec(
                    scheduler=scheduler, intensity=intensity,
                    num_threads=GOLDEN_THREADS, mix_seed=GOLDEN_MIX_SEED,
                    seed=seed, run_cycles=GOLDEN_CONFIG.run_cycles,
                )
                recordings[key] = {
                    "schema": RECORDING_SCHEMA,
                    "horizon": GOLDEN_CONFIG.run_cycles,
                    "cadence": GOLDEN_CONFIG.quantum_cycles,
                    "components": list(COMPONENTS),
                    "spec": spec.to_json(),
                    "checkpoints": checkpoints,
                }
    return matrix, recordings


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


def _write_document(document: Dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def _load_document(path) -> Dict:
    """A golden file's JSON document; :class:`GoldenFileError` naming
    the file when it is missing, not JSON (say, cut short) or of
    another format version."""
    path = Path(path)
    if not path.is_file():
        raise GoldenFileError(
            f"golden file {path} is missing; {UPDATE_HINT}"
        )
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GoldenFileError(
            f"golden file {path} is not JSON ({exc}); {UPDATE_HINT}"
        ) from None
    if document.get("version") != GOLDEN_VERSION:
        raise GoldenFileError(
            f"golden file {path} has version {document.get('version')}, "
            f"expected {GOLDEN_VERSION}; {UPDATE_HINT}"
        )
    return document


def save_goldens(matrix: Dict[str, Dict], path=GOLDEN_PATH) -> Path:
    return _write_document(golden_document(matrix), path)


def load_goldens(path=GOLDEN_PATH) -> Dict[str, Dict]:
    return _load_document(path)["matrix"]


def checkpoints_path(path=GOLDEN_PATH) -> Path:
    """The checkpoint recording beside the matrix file ``path``."""
    return Path(path).with_name(GOLDEN_CHECKPOINTS_PATH.name)


def save_golden_checkpoints(
    recordings: Dict[str, Dict], path=GOLDEN_CHECKPOINTS_PATH
) -> Path:
    return _write_document(
        {"version": GOLDEN_VERSION, "points": recordings}, path
    )


def load_golden_checkpoints(path=GOLDEN_CHECKPOINTS_PATH) -> Dict[str, Dict]:
    return _load_document(path)["points"]


def load_golden_files(path=GOLDEN_PATH) -> Tuple[Dict, Dict]:
    """The committed ``(matrix, recordings)``: the matrix at ``path`` and
    the checkpoint recording beside it."""
    return load_goldens(path), load_golden_checkpoints(checkpoints_path(path))


def golden_drifts(golden: Tuple[Dict, Dict],
                  fresh: Tuple[Dict, Dict]) -> List[Drift]:
    """One drift list over both golden files, in point order.

    ``golden`` and ``fresh`` are ``(matrix, recordings)`` pairs.  A
    checkpoint drift's path is its place in the recording
    (``checkpoints.100000.monitor``); a point one recording lacks is
    the path ``checkpoints``.
    """
    (golden_matrix, recorded), (matrix, recordings) = golden, fresh
    drifts = compare_fingerprints(golden_matrix, matrix) + [
        drift if drift.path else replace(drift, path="checkpoints")
        for drift in compare_fingerprints(recorded, recordings)
    ]
    return sorted(drifts, key=attrgetter("key"))


def check_goldens(path=GOLDEN_PATH, progress: bool = False) -> List[Drift]:
    """Run every golden point once and diff it against the matrix at
    ``path`` and the checkpoint recording beside it.

    Returns the drift list (empty = regression-free).  Raises
    :class:`GoldenFileError` before running anything when either file
    is missing or stale.
    """
    golden = load_golden_files(path)
    return golden_drifts(golden, compute_golden_matrix(progress=progress))


# ----------------------------------------------------------------------
# failure triage (exit codes + per-point mismatch table)
# ----------------------------------------------------------------------

#: ``validate goldens`` exit code: fingerprint *values* differ — a
#: behavioural regression.
EXIT_DRIFT = 3

#: ``validate goldens`` exit code: only whole entries or fields are
#: missing/new, or a golden file is missing, not JSON or of another
#: version — the goldens are out of date (matrix reshaped, fingerprint
#: format changed), not a behavioural drift.
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


def checkpoint_departures(
    drifts: Sequence[Drift],
) -> Dict[str, Optional[Tuple[int, List[str]]]]:
    """Per drifting point, in drift order: the first checkpoint cycle at
    which the run left its recording and the components that left it
    there, or None when every checkpoint matched (the drift is then in
    the alone runs or the end-of-run results).

    A point or checkpoint that one side lacks leaves as a whole
    (``<entry>``); a whole point leaves at cycle 0.
    """
    departures: Dict[str, Optional[Tuple[int, List[str]]]] = {}
    for drift in drifts:
        first = departures.setdefault(drift.key, None)
        field, *rest = drift.path.split(".", 2)
        if field != "checkpoints":
            continue
        cycle = int(rest[0]) if rest else 0
        component = rest[1] if len(rest) > 1 else "<entry>"
        if first is None or cycle < first[0]:
            departures[drift.key] = (cycle, [component])
        elif cycle == first[0]:
            first[1].append(component)
    return departures
