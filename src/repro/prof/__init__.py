"""repro.prof — the simulator profiling itself.

Where :mod:`repro.telemetry` and :mod:`repro.obs` measure the
*simulated* machine, this package measures the *simulator*: which
engine component burns the wall-clock, how fast the event loop runs,
and whether either regressed since the last commit.

Three cooperating pieces:

* :class:`Profiler` / :func:`profile_run` — a sampling profiler, an
  observer on one ``ITIMER_PROF`` timer, that charges each sample to
  the labels of the interrupted stack (the fused loop's tagged blocks,
  the policy's functions, DRAM, the CPU model, and the attached
  telemetry and observers); it wraps nothing, so a profiled run takes
  the fused loop and stays bit-identical.
* :mod:`repro.prof.flame` — collapsed-stack text (Brendan Gregg
  format, exact round-trip) and a self-contained no-JS SVG flame
  graph; the run page (:func:`repro.obs.dashboard.render_run_page`)
  embeds it beside the history trajectories.
* :mod:`repro.prof.history` — the append-only ``BENCH_history.json``
  record format with ``load``/``append``/``compare`` and
  median-of-rounds regression verdicts (warn by default, fail under
  ``REPRO_BENCH_STRICT=1``).

Beside them, :func:`py_calls_per_request` counts the Python frames an
``advance`` enters per granted request: a cost count that, unlike a
timing, is the same on any host.

CLI: ``python -m repro.experiments.cli obs`` prints and draws the prof
section of the run it observes (``--collapsed`` writes the stacks,
``--history`` adds the records to the page); ``prof history|compare``
read the records; see docs/PROFILING.md.
"""

from repro.prof.flame import (
    parse_collapsed,
    render_collapsed,
    render_flame_svg,
)
from repro.prof.history import (
    DEFAULT_HISTORY,
    DEFAULT_TOLERANCE,
    Verdict,
    append,
    compare,
    compare_histories,
    git_dirty,
    git_sha,
    latest,
    load,
    machine_fingerprint,
    make_record,
    same_machine,
    short_sha,
    strict_mode,
)
from repro.prof.profiler import (
    ProfileNode,
    ProfileReport,
    Profiler,
    attach_profiler,
    component_of,
    profile_run,
    py_calls_per_request,
)

__all__ = [
    "DEFAULT_HISTORY",
    "DEFAULT_TOLERANCE",
    "ProfileNode",
    "ProfileReport",
    "Profiler",
    "Verdict",
    "append",
    "attach_profiler",
    "compare",
    "compare_histories",
    "component_of",
    "git_dirty",
    "git_sha",
    "latest",
    "load",
    "machine_fingerprint",
    "make_record",
    "parse_collapsed",
    "profile_run",
    "py_calls_per_request",
    "render_collapsed",
    "render_flame_svg",
    "same_machine",
    "short_sha",
    "strict_mode",
]
