"""Record a fresh set of benchmark-history records.

Runs every bench that calls ``record_history`` (engine speed across
the full scheduler registry; the telemetry, spans, explain and probe
attached-vs-off ratios) with recording enabled and appends one
``repro.prof.history`` v1 record per bench to the target history
file:

    PYTHONPATH=src python scripts/record_bench_history.py              # repo root BENCH_history.json
    PYTHONPATH=src python scripts/record_bench_history.py --out p.json # elsewhere (CI artifact)

The committed ``BENCH_history.json`` is the regression baseline that
``prof compare`` and ``bench_engine_speed.py``'s plain-run guard read;
regenerate it only on the machine class CI/development runs on, at a
quiet moment, and commit the diff together with whatever perf-relevant
change prompted it.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHES = [
    "benchmarks/bench_engine_speed.py",
    "benchmarks/bench_observer_overhead.py",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_history.json"),
        help="history file to append to (default: repo-root "
             "BENCH_history.json)",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["REPRO_BENCH_RECORD"] = "1"
    env["REPRO_BENCH_HISTORY"] = str(Path(args.out).resolve())
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *BENCHES],
        cwd=REPO_ROOT, env=env,
    )
    if proc.returncode != 0:
        return proc.returncode

    from repro.prof import history

    records = history.load(args.out)
    print(f"{args.out}: {len(records)} records, "
          f"benches: {', '.join(history.benches(records))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
