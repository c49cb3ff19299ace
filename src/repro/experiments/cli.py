"""Command-line driver for the experiment harness.

Usage::

    python -m repro.experiments.cli paper fig4 --per-category 4
    python -m repro.experiments.cli paper fig2
    python -m repro.experiments.cli paper table6 --per-category 8
    python -m repro.experiments.cli run --intensity 0.75 --seed 3

``paper NAME`` prints one of the paper's figures or tables as aligned
text; ``--cycles`` scales the run length (default 400k).  A suite
figure runs its campaign preset, so it accepts ``--workers N``
(parallel campaign execution) and ``--store DIR`` (persistent result
cache), and ``campaign status --preset NAME`` reads what it stored.

Campaign subcommands drive the engine directly::

    python -m repro.experiments.cli campaign run --preset fig4 \\
        --store fig4-store --workers 8
    python -m repro.experiments.cli campaign status --preset fig4 \\
        --store fig4-store
    python -m repro.experiments.cli campaign resume --preset fig4 \\
        --store fig4-store --workers 8

``campaign run`` is already resumable (finished points are skipped via
the store); ``resume`` is an explicit alias.  A plan can also come
from a JSON file (``--plan plan.json``, see
:meth:`repro.campaign.CampaignPlan.save`).

One observed run (see docs/OBSERVABILITY.md)::

    python -m repro.experiments.cli obs --intensity 0.75 --out run.html \\
        --trace-out trace/run --json-out snap.json
    python -m repro.experiments.cli obs --out run.html \\
        --collapsed stacks.txt --history BENCH_history.json
    python -m repro.experiments.cli obs --json-in snap.json --out snap.html
    python -m repro.experiments.cli obs --store fig4-store --out campaign.html
    python -m repro.experiments.cli obs --trace-in trace/run.jsonl

``obs`` simulates one workload once, with request-lifecycle spans, the
epoch sampler, explain (``--shadows``, default every evaluated policy
but the primary) and the sampling self-profiler attached, and prints
its text report: the interference-attribution matrix (who delayed
whom, in cycles), cause breakdowns, slowdowns, per-epoch
MPKI/RBL/BLP/cluster tables, the Fig. 7-style cluster timeline,
explain's disagreement and margin tables, and where the simulator's
own time went (component shares and the slowest stack paths).  From
the same run it writes the self-contained HTML run page (``--out``,
with the flame graph, and the ``--history`` speed records when given),
the collapsed stacks (``--collapsed``), the JSONL event log and
Chrome/Perfetto trace (``--trace-out STEM`` writes ``STEM.jsonl`` and
``STEM.json``) and the explain snapshot (``--json-out``).  Without
simulating, it renders a saved snapshot (``--json-in``), a campaign
store's page (``--store``) or converts a JSONL log into a Perfetto
trace (``--trace-in``).  All commands accept ``--log-level
{debug,...}``.

Validation subcommands (see docs/VALIDATION.md)::

    python -m repro.experiments.cli validate run --intensity 0.75
    python -m repro.experiments.cli validate goldens
    python -m repro.experiments.cli validate goldens --update

``validate run`` executes the workload under every registered
scheduler with the invariant oracle attached and exits non-zero on
any violation; ``validate goldens`` runs each pinned golden point
once and checks its end-of-run fingerprint against the matrix
(``--goldens-path``) and its state fingerprints at every quantum
against the ``golden_checkpoints.json`` beside it.  On drift it names,
per drifting point, the first checkpoint and the components that left
the recording (or that every checkpoint matched) before the mismatch
table; exit 3 means values drifted, exit 4 means only the structure
changed or a golden file is missing or stale.  ``--update`` rewrites
both files from the same pass and prints the drift report of what it
overwrote.

Speed-record subcommands (see docs/PROFILING.md)::

    python -m repro.experiments.cli prof history
    python -m repro.experiments.cli prof compare --against new.json

``prof history`` lists the BENCH_history.json records; ``compare``
checks the latest records against a baseline history and exits
non-zero on a same-machine regression under ``REPRO_BENCH_STRICT=1``
or ``--strict``.  The profile of a run is a section of ``obs``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.campaign import PRESET_PLANS
from repro.config import SimConfig
from repro.experiments import (
    evaluate_workload,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    format_scatter,
    format_table,
    measure_leakage,
    table1,
    table2,
    table4,
    table6,
    table7,
    table8,
)
from repro.experiments.figures import ALL_SCHEDULERS, FIGURE8_BENCHMARKS
from repro.telemetry.log import add_log_level_argument, configure_logging
from repro.workloads import make_intensity_workload


def _action(args, verb: str) -> str:
    """The verb's action from :data:`_ACTIONS` (its first if none is
    given; ``paper`` has no default); exit if unknown."""
    actions = _ACTIONS[verb]
    action = args.action or (None if verb == "paper" else actions[0])
    if action not in actions:
        raise SystemExit(
            f"{verb}: unknown action {action!r} ({'|'.join(actions)})"
        )
    return action


def _workload(args, config):
    """``--workload-file``, else an ``--intensity`` mix seeded ``--seed``."""
    if args.workload_file:
        from repro.workloads import load_workload

        return load_workload(args.workload_file)
    return make_intensity_workload(
        args.intensity, num_threads=config.num_threads, seed=args.seed
    )


def _cmd_run(args, config):
    workload = _workload(args, config)
    names = (
        tuple(args.schedulers.split(","))
        if args.schedulers
        else ("frfcfs", "stfm", "parbs", "atlas", "tcm")
    )
    scores = evaluate_workload(workload, names, config=config, seed=args.seed)
    rows = [
        [name, s.weighted_speedup, s.maximum_slowdown, s.harmonic_speedup]
        for name, s in scores.items()
    ]
    print(
        format_table(
            ["scheduler", "WS", "MS", "HS"], rows,
            title=f"workload {workload.name}",
        )
    )


# ----------------------------------------------------------------------
# paper: each figure or table, rendered as the text ``paper`` prints
# ----------------------------------------------------------------------


def _scatter(points, title):
    return format_scatter(
        [(p.scheduler, p.weighted_speedup, p.maximum_slowdown)
         for p in points],
        title=title,
    )


def _ws_ms_table(title, label, rows):
    """One 'WS/MS' column per Figure 4 scheduler; rows are (name,
    {scheduler: score})."""
    return format_table(
        [label] + [f"{s} WS/MS" for s in ALL_SCHEDULERS],
        [[name] + [f"{by[s].weighted_speedup:.2f}/"
                   f"{by[s].maximum_slowdown:.2f}" for s in ALL_SCHEDULERS]
         for name, by in rows],
        title=title,
    )


def _characteristics(rows, title):
    return format_table(
        ["benchmark", "MPKI tgt", "MPKI", "RBL tgt", "RBL",
         "BLP tgt", "BLP", "IPC"],
        [[r.benchmark, r.target_mpki, r.measured_mpki, r.target_rbl,
          r.measured_rbl, r.target_blp, r.measured_blp, r.alone_ipc]
         for r in rows],
        title=title,
    )


def _paper_fig1(args, config):
    return _scatter(
        figure1(args.per_category, config, args.seed,
                workers=args.workers, store=args.store),
        "Figure 1",
    )


def _paper_fig2(args, config):
    result = figure2(config, seed=args.seed)
    return format_table(
        ["policy", "random-access slowdown", "streaming slowdown"],
        [["prioritize random-access", *result.prioritize_random],
         ["prioritize streaming", *result.prioritize_streaming]],
        title="Figure 2",
    )


def _paper_fig3(args, config):
    sequences = figure3(num_threads=4)
    rows = [
        [i, str(rr), str(ins)]
        for i, (rr, ins) in enumerate(
            zip(sequences["round_robin"], sequences["insertion"])
        )
    ]
    return format_table(["interval", "round-robin", "insertion"], rows,
                        title="Figure 3")


def _paper_fig4(args, config):
    return _scatter(
        figure4(args.per_category, config, base_seed=args.seed,
                workers=args.workers, store=args.store),
        "Figure 4",
    )


def _paper_fig5(args, config):
    results = figure5(config, avg_workloads=args.per_category,
                      base_seed=args.seed, workers=args.workers,
                      store=args.store)
    return _ws_ms_table(
        "Figure 5", "workload",
        [(w, results[w]) for w in ("A", "B", "C", "D", "AVG")],
    )


def _paper_fig6(args, config):
    curves = figure6(args.per_category, config, base_seed=args.seed,
                     workers=args.workers, store=args.store)
    rows = [
        [name, f"{p.parameter}={p.value}", p.weighted_speedup,
         p.maximum_slowdown]
        for name, points in curves.items()
        for p in points
    ]
    return format_table(["scheduler", "point", "WS", "MS"], rows,
                        title="Figure 6")


def _paper_fig7(args, config):
    results = figure7(args.per_category, config=config, base_seed=args.seed,
                      workers=args.workers, store=args.store)
    return _ws_ms_table("Figure 7", "intensity", [
        (f"{intensity:.0%}", {p.scheduler: p for p in points})
        for intensity, points in sorted(results.items())
    ])


def _paper_fig8(args, config):
    result = figure8(config, seed=args.seed, workers=args.workers,
                     store=args.store)
    rows = [
        [f"{name} (w={w})", result.speedups["atlas"][name],
         result.speedups["tcm"][name]]
        for name, w in FIGURE8_BENCHMARKS
    ]
    return format_table(["benchmark", "ATLAS", "TCM"], rows,
                        title="Figure 8")


def _paper_table1(args, config):
    return _characteristics(
        table1(config.with_(phase_mean_cycles=0), seed=args.seed), "Table 1"
    )


def _paper_table2(args, config):
    cost = table2()
    return format_table(
        ["monitor", "bits"],
        [["MPKI", cost.mpki_counter], ["load", cost.load_counter],
         ["BLP", cost.blp_counter + cost.blp_average],
         ["shadow index", cost.shadow_row_index],
         ["shadow hits", cost.shadow_row_hits],
         ["TOTAL", cost.total_bits]],
        title="Table 2",
    )


def _paper_table4(args, config):
    return _characteristics(
        table4(config.with_(phase_mean_cycles=0), seed=args.seed), "Table 4"
    )


def _paper_table6(args, config):
    rows = table6(args.per_category, config, base_seed=args.seed,
                  workers=args.workers, store=args.store)
    return format_table(
        ["algorithm", "MS avg", "MS var"],
        [[r.algorithm, r.ms_average, r.ms_variance] for r in rows],
        title="Table 6",
    )


def _paper_table7(args, config):
    points = table7(args.per_category, config, base_seed=args.seed,
                    workers=args.workers, store=args.store)
    return format_table(
        ["parameter", "value", "WS", "MS"],
        [[p.parameter, p.value, p.weighted_speedup, p.maximum_slowdown]
         for p in points],
        title="Table 7",
    )


def _paper_table8(args, config):
    rows = table8(args.per_category, config, base_seed=args.seed,
                  workers=args.workers, store=args.store)
    return format_table(
        ["dimension", "value", "TCM WS", "ATLAS WS", "TCM MS", "ATLAS MS"],
        [[r.dimension, r.value, r.tcm_ws, r.atlas_ws, r.tcm_ms, r.atlas_ms]
         for r in rows],
        title="Table 8",
    )


def _paper_leakage(args, config):
    workload = make_intensity_workload(
        1.0, num_threads=config.num_threads, seed=args.seed
    )
    result = measure_leakage(workload, config, seed=args.seed)
    rows = [
        [pos, f"{share:.1%}"]
        for pos, share in enumerate(result.shares, start=1)
        if share >= 0.005
    ]
    return format_table(["rank position", "service share"], rows,
                        title="Memory service leakage (paper 3.3)")


#: ``paper`` actions, in paper order: name -> its ``_paper_<name>``.
_PAPER = {
    render.__name__[len("_paper_"):]: render
    for render in (_paper_fig1, _paper_fig2, _paper_fig3, _paper_fig4,
                   _paper_fig5, _paper_fig6, _paper_fig7, _paper_fig8,
                   _paper_table1, _paper_table2, _paper_table4,
                   _paper_table6, _paper_table7, _paper_table8,
                   _paper_leakage)
}


#: every verb's actions; the first is the default (``paper`` has none)
_ACTIONS = {
    "paper": tuple(_PAPER),
    "campaign": ("run", "resume", "status", "compact"),
    "validate": ("run", "goldens"),
    "obs": ("run",),
    "prof": ("history", "compare"),
}


def _cmd_paper(args, config):
    print(_PAPER[_action(args, "paper")](args, config))


# ----------------------------------------------------------------------
# obs: one observed run
# ----------------------------------------------------------------------


def _explain_shadow_specs(args, primary: str):
    """``--shadows`` list, or every evaluated policy except the primary."""
    from repro.explain import canonical_policy_key
    from repro.schedulers.registry import EVALUATED

    if args.shadows:
        return tuple(s for s in args.shadows.split(",") if s)
    primary_key = canonical_policy_key(primary)
    return tuple(
        name for name in EVALUATED
        if canonical_policy_key(name) != primary_key
    )


def _cmd_obs(args, config):
    """Observe one run, once — spans, the epoch sampler, explain and
    the self-profiler on one ``System`` — print its text report and
    write its page, collapsed stacks, trace and snapshot; or render
    without simulating: a saved snapshot (``--json-in``), a campaign
    store (``--store``), a JSONL log (``--trace-in``)."""
    import json as json_mod
    from pathlib import Path

    from repro.obs.text import render_run_text

    _action(args, "obs")
    # a trace path's stem: the suffix of its last component goes, so
    # ``trace/run``, ``trace/run.json`` and ``out.d/run`` keep their
    # directories
    stem = os.path.splitext(args.trace_out or args.trace_in or "")[0]
    if args.trace_in:
        from repro.telemetry import jsonl_to_perfetto

        count = jsonl_to_perfetto(args.trace_in, stem + ".json")
        print(f"wrote {stem}.json ({count} events)")
        return
    if args.store:
        from repro.obs.aggregate import observe_campaign
        from repro.obs.dashboard import render_campaign_page, write_page

        page = render_campaign_page(observe_campaign(args.store),
                                    title=str(args.store))
        print(f"wrote {write_page(page, args.out or 'obs_campaign.html')}")
        return
    if args.json_in:
        run, title, profile = None, args.json_in, None
        snapshot = json_mod.loads(Path(args.json_in).read_text())
    else:
        from repro.obs.aggregate import observe_run
        from repro.telemetry import JsonlSink, PerfettoSink

        scheduler = args.scheduler or "tcm"
        sinks = ((JsonlSink(stem + ".jsonl"), PerfettoSink(stem + ".json"))
                 if args.trace_out else ())
        run = observe_run(_workload(args, config), scheduler, config,
                          seed=args.seed, epoch_cycles=args.epoch_cycles,
                          shadows=_explain_shadow_specs(args, scheduler),
                          sinks=sinks)
        title, snapshot, profile = None, run.explain, run.profile
        if sinks:
            print(f"wrote {stem}.jsonl and {stem}.json ({run.events} "
                  f"events, {len(run.samples)} epochs)")
        if args.json_out:
            out = Path(args.json_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json_mod.dumps(snapshot, indent=1))
            print(f"wrote {out}")
        if args.collapsed:
            from repro.prof import render_collapsed

            Path(args.collapsed).write_text(render_collapsed(profile),
                                            encoding="utf-8")
            print(f"wrote {args.collapsed}")
    print(render_run_text(run, explain=snapshot, profile=profile))
    if args.out:
        from repro.obs.dashboard import render_run_page, write_page
        from repro.prof import load

        try:
            records = load(args.history) if args.history else []
        except (ValueError, OSError):
            records = []
        page = render_run_page(run, explain=snapshot, profile=profile,
                               history=records, title=title)
        print(f"wrote {write_page(page, args.out)}")


# ----------------------------------------------------------------------
# validate subcommands
# ----------------------------------------------------------------------


def _cmd_validate(args, config):
    from repro.validate import (
        EXIT_MISSING,
        GOLDEN_PATH,
        GoldenFileError,
        OracleConfig,
        check_goldens,
        checked_run,
        checkpoint_departures,
        checkpoints_path,
        compute_golden_matrix,
        drift_point_rows,
        drifts_exit_code,
        format_drift_report,
        golden_drifts,
        load_golden_files,
        save_golden_checkpoints,
        save_goldens,
    )

    action = _action(args, "validate")

    if action == "goldens":
        path = args.goldens_path or GOLDEN_PATH
        if args.update:
            fresh = compute_golden_matrix(progress=True)
            matrix, recordings = fresh
            try:
                drifts = golden_drifts(load_golden_files(path), fresh)
            except GoldenFileError:
                drifts = None   # first generation or format change
            if drifts:
                print(format_drift_report(drifts))
            changed = ("no previous goldens" if drifts is None
                       else f"{len(drifts)} fields changed" if drifts
                       else "unchanged")
            print(f"wrote {save_goldens(matrix, path)} "
                  f"({len(matrix)} points, {changed})")
            where = save_golden_checkpoints(recordings, checkpoints_path(path))
            print(f"wrote {where}")
            return
        try:
            drifts = check_goldens(path, progress=True)
        except GoldenFileError as exc:
            print(f"goldens: {exc}")
            raise SystemExit(EXIT_MISSING) from None
        if drifts:
            print(format_drift_report(drifts))
            print()
            print("per-quantum checkpoints of each drifting point:")
            for key, first in checkpoint_departures(drifts).items():
                print(f"  {key}: " + (
                    "every checkpoint matched — the drift is in the alone "
                    "runs or the end-of-run results" if first is None
                    else f"first left the recording at checkpoint "
                         f"{first[0]}: {', '.join(first[1])}"))
            print()
            print(format_table(
                ["mix", "scheduler", "seed", "field", "expected",
                 "actual"],
                drift_point_rows(drifts),
                title="golden mismatches by point",
            ))
            code = drifts_exit_code(drifts)
            print(f"exit {code}: "
                  + ("fingerprint drift — behaviour changed"
                     if code == 3 else
                     "matrix structure changed — goldens out of date")
                  + "\nIf this drift is an intended behavioural change, "
                  "regenerate with:\n    PYTHONPATH=src python -m "
                  "repro.experiments.cli validate goldens --update")
            raise SystemExit(code)
        print("goldens: no drift")
        return

    from repro.schedulers import SCHEDULERS

    workload = _workload(args, config)
    names = (
        tuple(args.schedulers.split(","))
        if args.schedulers
        else tuple(sorted(SCHEDULERS))
    )
    rows = []
    failed = False
    oracle_config = OracleConfig(raise_on_violation=False)
    for name in names:
        result, report = checked_run(
            workload, name, config, seed=args.seed,
            oracle_config=oracle_config,
        )
        rows.append([name, "ok" if report.ok else "FAIL",
                     report.total_checks, result.total_requests])
        for violation in report.violations:
            failed = True
            print(f"VIOLATION [{name}] {violation}")
    print(
        format_table(
            ["scheduler", "oracle", "checks", "requests"], rows,
            title=f"invariant oracle: workload {workload.name}",
        )
    )
    if failed:
        raise SystemExit(1)


# ----------------------------------------------------------------------
# prof subcommands
# ----------------------------------------------------------------------


def _cmd_prof(args, config):
    from repro.prof import compare_histories, load, short_sha, strict_mode

    action = _action(args, "prof")
    history_path = args.history or "BENCH_history.json"

    if action == "history":
        records = load(history_path)
        print(
            format_table(
                ["bench", "date", "sha", "median s", "best s", "events/s"],
                [[r.get("bench", "?"), r.get("recorded_on", "?"),
                  short_sha(r),
                  round(r["wall_s"]["median"], 4),
                  round(r["wall_s"]["best"], 4),
                  (round(r["events_per_sec"])
                   if r.get("events_per_sec") else "-")]
                 for r in records],
                title=f"{history_path} ({len(records)} records)",
            )
        )
        return

    if action == "compare":
        against = args.against or history_path
        verdicts = compare_histories(history_path, against,
                                     tolerance=args.tolerance)
        if not verdicts:
            print("prof compare: no overlapping benches to compare")
            return
        rows = [[v.bench, v.verdict,
                 f"{v.ratio:.3f}x" if v.ratio is not None else "-",
                 v.message]
                for v in verdicts]
        print(format_table(["bench", "verdict", "ratio", "detail"], rows,
                           title=f"{history_path} vs {against}"))
        regressions = [v for v in verdicts if v.failed]
        if regressions and (args.strict or strict_mode()):
            raise SystemExit(
                f"prof compare: {len(regressions)} regression(s)"
            )


# ----------------------------------------------------------------------
# campaign subcommands
# ----------------------------------------------------------------------


def _campaign_plan(args, config):
    from repro.campaign import CampaignPlan, preset_plan

    if args.plan:
        return CampaignPlan.load(args.plan)
    if args.preset:
        try:
            return preset_plan(
                args.preset, per_category=args.per_category, config=config,
                base_seed=args.seed,
            )
        except KeyError as exc:
            raise SystemExit(f"campaign: {exc.args[0]}") from None
    raise SystemExit("campaign: provide --plan FILE or --preset NAME")


def _cmd_campaign(args, config):
    from repro.campaign import (
        KIND_FAILURE,
        KIND_POINT,
        CampaignStore,
        execute_plan,
    )

    action = _action(args, "campaign")

    if action == "compact":
        # needs no plan: compaction is a property of the store alone
        if args.store is None:
            raise SystemExit("campaign compact: --store DIR is required")
        with CampaignStore(args.store) as store:
            stats = store.compact()
        print(
            format_table(
                ["stat", "value"],
                [[name, stats[name]] for name in (
                    "records_before", "records_after", "superseded",
                    "bytes_before", "bytes_after", "bytes_reclaimed",
                )],
                title=f"compacted {args.store}",
            )
        )
        return

    plan = _campaign_plan(args, config)

    if action == "status":
        if args.store is None:
            raise SystemExit("campaign status: --store DIR is required")
        with CampaignStore(args.store) as store:
            states = {"done": 0, "failed": 0, "pending": 0}
            for key in plan.keys:
                kind = store.kind(key)
                if kind == KIND_POINT:
                    states["done"] += 1
                elif kind == KIND_FAILURE:
                    states["failed"] += 1
                else:
                    states["pending"] += 1
        print(
            format_table(
                ["state", "points"],
                [[name, count] for name, count in states.items()],
                title=f"campaign {plan.name} ({len(plan)} points)",
            )
        )
        return

    report = execute_plan(
        plan,
        store=args.store,
        workers=args.workers or 1,
        timeout=args.timeout,
        retries=args.retries,
        force=args.force,
        progress=True,
        trace_dir=args.trace_dir,
        trace_epoch_cycles=args.epoch_cycles,
    )
    print(report.summary)
    for failure in report.failed:
        print(
            f"FAILED {failure.point.workload.name}/"
            f"{failure.point.scheduler}: {failure.error}"
        )


_COMMANDS = {
    "campaign": _cmd_campaign,
    "obs": _cmd_obs,
    "paper": _cmd_paper,
    "prof": _cmd_prof,
    "validate": _cmd_validate,
    "run": _cmd_run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.cli",
        description="Regenerate the TCM paper's tables and figures.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("action", nargs="?", default=None,
                        help="; ".join(
                            f"{verb} action: {' | '.join(actions)}"
                            for verb, actions in _ACTIONS.items()
                        ) + " (the first is the default; paper has none)")
    parser.add_argument("--cycles", type=int, default=400_000,
                        help="simulated cycles per run")
    parser.add_argument("--per-category", type=int, default=2,
                        help="workloads per intensity category")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--intensity", type=float, default=0.5,
                        help="memory-intensive fraction of the workload "
                             "(run, obs, validate run)")
    parser.add_argument("--workload-file", default=None,
                        help="JSON workload definition instead of "
                             "--intensity (run, obs, validate run; see "
                             "repro.workloads.save_workload)")
    parser.add_argument("--schedulers", default=None,
                        help="comma-separated scheduler list (run, "
                             "validate run)")
    parser.add_argument("--workers", type=int, default=None,
                        help="campaign worker processes (default: serial)")
    parser.add_argument("--store", default=None,
                        help="campaign store directory (persistent result "
                             "cache; enables resume); obs: render its "
                             "campaign page")
    parser.add_argument("--plan", default=None,
                        help="campaign plan JSON file (campaign command)")
    parser.add_argument("--preset", default=None,
                        help="named preset campaign: "
                             + ", ".join(PRESET_PLANS)
                             + " (campaign command)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point timeout in seconds (campaign "
                             "command, workers > 1)")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per failed point (campaign command)")
    parser.add_argument("--force", action="store_true",
                        help="re-run campaign points even if stored")
    parser.add_argument("--scheduler", default=None,
                        help="obs: scheduler of the one observed run "
                             "(default tcm)")
    parser.add_argument("--epoch-cycles", type=int, default=None,
                        help="epoch-sampler period in cycles (default: "
                             "quantum length)")
    parser.add_argument("--trace-in", default=None,
                        help="obs: convert this JSONL event log to a "
                             "Perfetto trace (STEM.json) instead of "
                             "simulating")
    parser.add_argument("--trace-out", default=None,
                        help="obs: write the run's trace as STEM.jsonl "
                             "and STEM.json (a suffix of the last path "
                             "component is dropped)")
    parser.add_argument("--trace-dir", default=None,
                        help="write per-point JSONL traces here "
                             "(campaign run)")
    parser.add_argument("--out", default=None,
                        help="obs: output path of the HTML page")
    parser.add_argument("--collapsed", default=None,
                        help="obs: also write the run's profile as "
                             "Brendan Gregg collapsed stacks to this path")
    parser.add_argument("--history", default=None,
                        help="benchmark history file: prof (default "
                             "BENCH_history.json); obs: draw its speed "
                             "records on the page")
    parser.add_argument("--against", default=None,
                        help="prof compare: newer history file to check "
                             "against --history (default: compare the "
                             "last two records per bench in --history)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="prof compare: regression tolerance on the "
                             "median ratio (default: the baseline "
                             "record's own, then 1.05)")
    parser.add_argument("--strict", action="store_true",
                        help="prof compare: exit non-zero on regression "
                             "even without REPRO_BENCH_STRICT=1")
    parser.add_argument("--update", action="store_true",
                        help="validate goldens: regenerate the golden "
                             "matrix and its checkpoint recording instead "
                             "of checking them, and print the drift "
                             "report of what it overwrites")
    parser.add_argument("--json-in", default=None,
                        help="obs: saved explain snapshot JSON to render")
    parser.add_argument("--goldens-path", default=None,
                        help="validate goldens: golden matrix JSON path, "
                             "its checkpoint recording the "
                             "golden_checkpoints.json beside it (default "
                             "tests/goldens/golden_matrix.json)")
    parser.add_argument("--shadows", default=None,
                        help="obs: comma-separated shadow policies "
                             "(default: every evaluated policy except "
                             "the primary)")
    parser.add_argument("--json-out", default=None,
                        help="obs: write the explain snapshot JSON here")
    add_log_level_argument(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    config = SimConfig(run_cycles=args.cycles)
    try:
        _COMMANDS[args.command](args, config)
    except KeyboardInterrupt as exc:
        # CampaignInterrupted (a KeyboardInterrupt subclass) carries the
        # flushed-and-resumable message; a bare Ctrl-C elsewhere gets
        # the conventional 130 without a stack trace either way.
        detail = str(exc)
        print(f"interrupted: {detail}" if detail else "interrupted",
              file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout consumer went away (e.g. `... | head`); not an error.
        # Point stdout at devnull so interpreter teardown doesn't try
        # to flush the dead pipe and print a second traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
