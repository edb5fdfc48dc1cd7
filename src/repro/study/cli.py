"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro.study [--nranks 8] [--seed 7] [--out results/]
                          [--jobs N]
    python -m repro.study all [--jobs N] [--format text|json]
                              [--no-cache] [--stats]
    python -m repro.study lint <app|--all> [--format text|json]
    python -m repro.study chaos [--app NAME[/LIB]]... [--all] [--jobs N]
    python -m repro.study crossvalidate <app|--all> [--jobs N]
    python -m repro.study staticcheck <app|--all> [--jobs N]
    python -m repro.study roundtrip <app|--all|--check FILE>
    python -m repro.study metrics <file|--collect>
    python -m repro.study fingerprint
    python -m repro.study serve [--port 0] [--queue-limit N]
                                [--workers N] [--ready-file FILE]
    python -m repro.study request <endpoint> --port P [--param k=v]...
    python -m repro.study loadtest --port P [--clients N] [--seed S]
    python -m repro.study cache <stats|prune> [--max-age-days D]
                                [--max-bytes N]

The default mode prints Tables 1–5 and Figures 1–3 (text form) and,
with ``--out``, writes per-run reports and Figure 2 CSV dot clouds.
``all`` evaluates the app×config matrix as JSON-able summary cells —
fanned out over ``--jobs`` worker processes and served incrementally
from the content-addressed result cache (``.repro-cache/``), with
byte-identical output for every jobs/cache combination.  The ``lint``
subcommand runs the static consistency-semantics linter
(:mod:`repro.lint`); ``chaos`` replays traces under a deterministic
fault matrix (:mod:`repro.pfs.chaos`); ``crossvalidate`` checks the
linter against the replay-based oracle; ``staticcheck`` evaluates the
symbolic I/O plans (:mod:`repro.staticcheck`) and cross-validates the
static conflict predictions against the dynamic detector;
``roundtrip`` checks the ``.rtrc`` trace format is lossless;
``fingerprint`` prints the code fingerprint cache keys embed (CI keys
its cache restore on it).
``serve`` runs the asyncio analysis service (:mod:`repro.serve`),
``request`` issues one query against it, ``loadtest`` drives the
seeded closed-loop load generator, and ``cache`` inspects and prunes
the content-addressed result store — see ``docs/serving.md``.

Every matrix subcommand accepts ``--metrics FILE``: the run executes
under a :mod:`repro.obs` registry (bypassing the result cache so the
simulator actually runs) and writes the collected counters, timers,
and self-trace spans as JSON lines to ``FILE`` — stdout is unchanged.
``metrics`` renders the text dashboard for such a file (or collects
one live with ``--collect``).

Exit codes are uniform across every subcommand:

* **0** — ran to completion, nothing to report;
* **1** — a real finding or failure (ERROR diagnostics, an unsound
  chaos cell, a cross-validation false negative);
* **2** — usage error (unknown application/library/plan/rule, bad
  flag combination).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.core.semantics import Semantics
from repro.study.figures import (
    figure1_text,
    figure2_ascii,
    figure2_csv,
    figure2_text,
    figure3_text,
)
from repro.study.runner import run_study
from repro.study.tables import (
    table1_text,
    table2_text,
    table3_text,
    table4_text,
    table5_text,
)

#: ran to completion, nothing to report
EXIT_OK = 0
#: a real finding or failure (lint ERROR, unsound chaos cell, ...)
EXIT_FINDINGS = 1
#: bad invocation (unknown app/plan/rule, invalid flag combination)
EXIT_USAGE = 2


class _UsageError(Exception):
    """Invalid invocation; the message goes to stderr, exit is 2."""


def _usage_guard(func):
    """Give every entry point the same usage-error contract.

    Each subcommand ``*_main`` is public API (tests and tools call them
    directly, not only through :func:`main`), so each must map
    :class:`_UsageError` to stderr + exit code 2 itself.
    """
    import functools

    @functools.wraps(func)
    def wrapper(argv: list[str] | None = None) -> int:
        try:
            return func(argv)
        except _UsageError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE

    return wrapper


def _resolve_variants(entries: list[str] | None, all_flag: bool):
    """Shared ``--app NAME[/LIB]`` / ``--all`` resolution.

    Every subcommand resolves configurations through this one helper so
    unknown names and empty filters fail identically (message to
    stderr, exit code 2) across ``lint``, ``chaos``, ``crossvalidate``
    and the single-app default mode.
    """
    from repro.apps.registry import APPLICATIONS, find_spec

    if all_flag == bool(entries):
        raise _UsageError("specify exactly one of --app NAME[/LIB] "
                          "(or a NAME argument) or --all")
    if all_flag:
        return [v for spec in APPLICATIONS for v in spec.variants]
    variants = []
    for entry in entries or []:
        name, _, lib = entry.partition("/")
        try:
            spec = find_spec(name)
        except KeyError:
            known = ", ".join(sorted(s.name for s in APPLICATIONS))
            raise _UsageError(
                f"unknown application {name!r}; known: {known}")
        matched = [v for v in spec.variants
                   if not lib or v.io_library.lower() == lib.lower()]
        if not matched:
            raise _UsageError(f"no variant of {spec.name} uses {lib!r}")
        variants.extend(matched)
    return variants


def _add_selection_args(parser: argparse.ArgumentParser, verb: str, *,
                        app_help: str | None = None) -> None:
    """The positional ``NAME[/LIB]`` or ``--all`` configuration choice."""
    parser.add_argument("app", nargs="?", metavar="NAME[/LIB]",
                        help=app_help or f"configuration to {verb}; "
                                         f"omit with --all")
    parser.add_argument("--all", action="store_true",
                        help=f"{verb} every registered configuration")


def _selected_variants(args: argparse.Namespace):
    return _resolve_variants([args.app] if args.app else None,
                             all_flag=args.all)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update .repro-cache/")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        metavar="DIR",
                        help="result cache root (default "
                             ".repro-cache/ or $REPRO_CACHE_DIR)")


def _add_matrix_args(parser: argparse.ArgumentParser, *,
                     nranks: int = 8) -> None:
    """Flags shared by every matrix-shaped subcommand."""
    parser.add_argument("--nranks", type=int, default=nranks)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the matrix "
                             "(default 1 = serial; 0 = one per CPU)")
    _add_cache_args(parser)
    parser.add_argument("--metrics", type=Path, default=None,
                        metavar="FILE",
                        help="collect simulator metrics and write them "
                             "as JSON lines to FILE (implies "
                             "--no-cache; the report itself is "
                             "unchanged)")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    """How a matrix subcommand reports: ``--format``/``--stats``/``--out``."""
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--stats", action="store_true",
                        help="print per-cell timing/cache provenance "
                             "to stderr")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the report to this file")


@contextmanager
def _matrix_scope(args: argparse.Namespace):
    """Result cache and metrics registry for one matrix invocation.

    Yields the cache.  Without ``--metrics`` no registry is active.
    With it, a tracing registry is active for the body and the cache
    is disabled — a cached cell never runs the simulator, so the
    instruments must fire.  The JSON-lines export is written on normal
    exit (a usage error leaves no partial file); the report on stdout
    is the same bytes either way.
    """
    from repro.study.cache import ResultCache

    if args.metrics is None:
        yield ResultCache.from_options(cache_dir=args.cache_dir,
                                       no_cache=args.no_cache)
        return
    from repro.obs import registry as obs
    from repro.obs.export import to_jsonl

    with obs.collecting(trace=True) as reg:
        yield ResultCache.disabled()
        args.metrics.parent.mkdir(parents=True, exist_ok=True)
        args.metrics.write_text(to_jsonl(reg))
        print(f"[metrics: {len(reg)} instruments -> "
              f"{args.metrics}]", file=sys.stderr)


def _matrix_jobs(args: argparse.Namespace) -> int:
    from repro.study.parallel import resolve_jobs

    return resolve_jobs(None) if args.jobs == 0 else max(1, args.jobs)


def _emit(args: argparse.Namespace, text: str, *, ok: bool = True,
          run=None, cache=None) -> int:
    """Print a report, mirror it to ``--out``, and return its exit code.

    A matrix ``run`` also reports cache-hit and timing stats — on
    stderr, never in the payload.  Keeping stdout pure is what lets the
    determinism tests (and CI artifact diffs) demand byte-identical
    reports regardless of jobs count or cache temperature.
    """
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    if run is not None:
        print(f"[{run.summary()}; cache: {cache.stats.summary()}]",
              file=sys.stderr)
        if args.stats:
            print(run.timing_table(), file=sys.stderr)
    return EXIT_OK if ok else EXIT_FINDINGS


def _emit_cells(args: argparse.Namespace, run, cache, ok: bool,
                text_table, **extra) -> int:
    """Report a matrix of verdict cells: ``{nranks, seed, cells, ok}``
    (plus ``extra``) as JSON, or the subcommand's ``text_table``."""
    import json

    cells = run.payloads
    if args.format == "json":
        text = json.dumps({"nranks": args.nranks, "seed": args.seed,
                           "cells": cells, "ok": ok, **extra},
                          sort_keys=True, indent=2)
    else:
        text = text_table(cells)
    return _emit(args, text, ok=ok, run=run, cache=cache)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {
        "all": all_main,
        "lint": lint_main,
        "chaos": chaos_main,
        "crossvalidate": crossvalidate_main,
        "staticcheck": staticcheck_main,
        "fingerprint": fingerprint_main,
        "roundtrip": roundtrip_main,
        "metrics": metrics_main,
        "serve": serve_main,
        "request": request_main,
        "loadtest": loadtest_main,
        "cache": cache_main,
    }
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return _tables_main(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


def _tables_main(argv: list[str]) -> int:
    from repro.apps.registry import all_variants

    parser = argparse.ArgumentParser(
        prog="python -m repro.study",
        description="Regenerate the paper's tables and figures from "
                    "fresh simulated traces.")
    parser.add_argument("--nranks", type=int, default=8,
                        help="MPI ranks per run (default 8; the paper "
                             "used 64 and 1024)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for tracing the matrix "
                             "(default 1 = serial; 0 = one per CPU)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-run reports and CSVs")
    parser.add_argument("--app", default=None, metavar="NAME[/LIB]",
                        help="analyze a single application instead of "
                             "the full study (e.g. FLASH or LAMMPS/ADIOS)")
    args = parser.parse_args(argv)

    if args.app is not None:
        return _single_app(args)

    print(table1_text())
    print()
    print(table2_text())
    print()
    print(table5_text())
    print()

    print(f"Running the {len(all_variants())} configurations at "
          f"{args.nranks} ranks ...", flush=True)
    results = run_study(nranks=args.nranks, seed=args.seed,
                        jobs=_matrix_jobs(args))

    print()
    print(table3_text(results))
    print()
    print(table4_text(results))
    print()
    print(figure1_text(results))
    print()
    fbs = results.find("FLASH-HDF5 fbs")
    nofbs = results.find("FLASH-HDF5 nofbs")
    print(figure2_text(fbs, nofbs))
    print()
    print(figure2_ascii(fbs, nofbs))
    print()
    print(figure3_text(results))

    from repro.study.compat import compat_text
    print()
    print(compat_text(results))

    clean = sum(
        1 for run in results
        if not run.report.conflicts(Semantics.SESSION).cross_process_only)
    print()
    print(f"{clean} of {len(results)} configurations are free of "
          f"cross-process conflicts under session semantics.")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for run in results:
            name = run.label.replace("/", "_").replace(" ", "_")
            (args.out / f"{name}.report.txt").write_text(
                run.report.to_text() + "\n")
            run.trace.to_jsonl(args.out / f"{name}.trace.jsonl")
        paths = figure2_csv(fbs, nofbs, args.out)
        print(f"wrote {len(results)} reports+traces and "
              f"{len(paths)} figure-2 CSVs to {args.out}/")
    return EXIT_OK


def _single_app(args: argparse.Namespace) -> int:
    from repro.core.report import analyze

    variants = _resolve_variants([args.app], all_flag=False)
    for variant in variants:
        trace = variant.run(nranks=args.nranks, seed=args.seed)
        report = analyze(trace)
        print(report.to_text())
        print()
        print(report.profile.to_text())
        print()
        from repro.core.timeline import conflict_timelines
        session = report.conflicts(Semantics.SESSION)
        if session:
            print(conflict_timelines(trace, session, max_files=2))
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            safe = variant.label.replace("/", "_").replace(" ", "_")
            (args.out / f"{safe}.report.txt").write_text(
                report.to_text() + "\n")
            trace.to_jsonl(args.out / f"{safe}.trace.jsonl")
            from repro.tracer.recorder_format import to_recorder_text
            to_recorder_text(trace, args.out / f"{safe}.trace.txt")
    return EXIT_OK


@_usage_guard
def all_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study all`` — the matrix as summary cells.

    The incremental, parallel face of the campaign: one JSON-able
    summary per configuration, fanned out over ``--jobs`` workers and
    served from the result cache when the cell parameters and the code
    fingerprint are unchanged.  Output on stdout is byte-identical for
    every jobs/cache combination; stats go to stderr.
    """
    from repro.study.runner import study_cells

    parser = argparse.ArgumentParser(
        prog="python -m repro.study all",
        description="Evaluate every registered configuration into "
                    "summary cells (parallel + cached).")
    _add_matrix_args(parser)
    parser.add_argument("--workflows", action="store_true",
                        help="append the canonical producer/consumer "
                             "workflow cell to the matrix")
    _add_output_args(parser)
    args = parser.parse_args(argv)

    with _matrix_scope(args) as cache:
        run = study_cells(nranks=args.nranks, seed=args.seed,
                          jobs=_matrix_jobs(args), cache=cache)
        cells = run.payloads

        if args.workflows:
            from repro.study.parallel import (
                CellSpec,
                run_matrix,
                workflow_task,
            )

            wf = run_matrix(
                "workflow-cell",
                [CellSpec(key_fields={"producer_ranks": 4,
                                      "reader_ranks": 2,
                                      "seed": args.seed},
                          task=(4, 2, args.seed))],
                workflow_task, jobs=1, cache=cache)
            cells.extend(wf.payloads)
            run.outcomes.extend(wf.outcomes)

        return _emit(args, _matrix_report(args, cells), run=run,
                     cache=cache)


def _matrix_report(args: argparse.Namespace, cells: list[dict]) -> str:
    """``study all`` cells as canonical JSON or the text table."""
    from repro.study.runner import matrix_json

    if args.format == "json":
        return matrix_json(cells, nranks=args.nranks, seed=args.seed)
    hdr = (f"{'configuration':<26} {'X-Y':<4} {'pattern':<15} "
           f"{'session':>8} {'commit':>7} {'weakest':<9} files")
    lines = [hdr, "-" * len(hdr)]
    for cell in cells:
        conflicts = cell["conflicts"]
        lines.append(
            f"{cell['label']:<26} {cell.get('xy', '-'):<4} "
            f"{cell.get('pattern', '-'):<15} "
            f"{conflicts['session']['count']:>8} "
            f"{conflicts['commit']['count']:>7} "
            f"{cell['weakest_semantics']:<9} "
            f"{cell.get('data_files', '-')}")
    clean = sum(1 for c in cells
                if not c["conflicts"]["session"]["cross_process"])
    lines.append("")
    lines.append(f"{clean} of {len(cells)} cells are free of "
                 f"cross-process conflicts under session semantics.")
    return "\n".join(lines)


@_usage_guard
def lint_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study lint`` — the static semantics linter.

    Exit codes: 0 no ERROR diagnostics, 1 at least one ERROR, 2 usage.
    """
    from repro.errors import LintError
    from repro.lint import all_rules, lint_variant
    from repro.lint.reporters import (
        render_json,
        render_study_json,
        render_study_text,
        render_text,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.study lint",
        description="Statically lint application traces for "
                    "consistency-semantics hazards (no PFS replay).")
    _add_selection_args(parser, "lint",
                        app_help="application to lint (e.g. FLASH or "
                                 "LAMMPS/ADIOS); omit with --all")
    parser.add_argument("--nranks", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--rules", default=None, metavar="R1,R2",
                        help="comma-separated rule names/ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:26s} {rule.summary}")
        return EXIT_OK
    variants = _selected_variants(args)
    rules = ([r.strip() for r in args.rules.split(",") if r.strip()]
             if args.rules else None)

    try:
        reports = [lint_variant(v, nranks=args.nranks, seed=args.seed,
                                rules=rules)
                   for v in variants]
    except LintError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        text = (render_study_json(reports, nranks=args.nranks,
                                  seed=args.seed)
                if args.all or len(reports) > 1
                else render_json(reports[0]))
    else:
        text = (render_study_text(reports) if args.all
                else "\n\n".join(render_text(r) for r in reports))
    return _emit(args, text, ok=not any(r.errors for r in reports))


@_usage_guard
def chaos_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study chaos`` — fault-matrix replay.

    Exit codes: 0 every cell sound, 1 at least one contract violation
    or unattributed corruption, 2 usage.
    """
    from repro.pfs.chaos import (
        CHAOS_SEMANTICS,
        CHAOS_STRIPE_SIZE,
        ChaosCell,
        ChaosReport,
        default_fault_plans,
    )
    from repro.study.parallel import (
        chaos_variant_task,
        run_matrix,
        variant_cell,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.study chaos",
        description="Replay application traces under a deterministic "
                    "fault matrix and audit crash recovery against the "
                    "per-semantics durability contract.")
    parser.add_argument("--app", action="append", default=None,
                        metavar="NAME[/LIB]",
                        help="configuration to test (repeatable, e.g. "
                             "--app FLASH --app LAMMPS/ADIOS)")
    parser.add_argument("--all", action="store_true",
                        help="test every registered configuration")
    _add_matrix_args(parser, nranks=4)
    parser.add_argument("--plans", default=None, metavar="P1,P2",
                        help="subset of plan names to run (default: "
                             "the full matrix; see --list-plans)")
    parser.add_argument("--list-plans", action="store_true",
                        help="print the default fault plans and exit")
    _add_output_args(parser)
    args = parser.parse_args(argv)

    if args.list_plans:
        for plan in default_fault_plans(args.seed):
            print(f"{plan.name:<16} crashes={len(plan.crashes)} "
                  f"cache_drops={len(plan.cache_drops)} "
                  f"error_rate={plan.error_rate:g}")
        return EXIT_OK
    variants = _resolve_variants(args.app, all_flag=args.all)

    plans = default_fault_plans(args.seed)
    if args.plans is not None:
        wanted = {p.strip() for p in args.plans.split(",") if p.strip()}
        unknown = wanted - {p.name for p in plans}
        if unknown:
            raise _UsageError(
                f"unknown plan(s): {', '.join(sorted(unknown))}")
        plans = [p for p in plans if p.name in wanted]

    plan_names = tuple(p.name for p in plans)
    sem_names = tuple(s.name.lower() for s in CHAOS_SEMANTICS)
    with _matrix_scope(args) as cache:
        run = run_matrix(
            "chaos-variant",
            [variant_cell(v, args.nranks, args.seed, plans=plan_names,
                          semantics=sem_names, stripe=CHAOS_STRIPE_SIZE)
             for v in variants],
            chaos_variant_task, jobs=_matrix_jobs(args), cache=cache)

        report = ChaosReport(nranks=args.nranks, seed=args.seed,
                             plans=list(plan_names))
        for payload in run.payloads:
            report.cells.extend(
                ChaosCell.from_dict(d) for d in payload["cells"])

        text = (report.to_json() if args.format == "json"
                else report.to_text())
        return _emit(args, text, ok=report.ok, run=run, cache=cache)


def _verdict_matrix(argv: list[str] | None, command: str,
                    description: str, kind: str, worker,
                    text_table) -> int:
    """One cached verdict cell per selected configuration.

    The shared body of ``crossvalidate`` and ``staticcheck``: exit 0
    when every cell is ``ok``, 1 otherwise, 2 usage.
    """
    from repro.study.parallel import run_matrix, variant_cell

    parser = argparse.ArgumentParser(
        prog=f"python -m repro.study {command}", description=description)
    _add_selection_args(parser, "check")
    _add_matrix_args(parser)
    _add_output_args(parser)
    args = parser.parse_args(argv)

    variants = _selected_variants(args)
    with _matrix_scope(args) as cache:
        run = run_matrix(
            kind, [variant_cell(v, args.nranks, args.seed)
                   for v in variants],
            worker, jobs=_matrix_jobs(args), cache=cache)
        return _emit_cells(args, run, cache,
                           all(c["ok"] for c in run.payloads),
                           text_table)


@_usage_guard
def crossvalidate_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study crossvalidate`` — lint vs replay oracle.

    Exit codes: 0 no false negatives, 1 the linter missed a pair the
    replay pipeline reports (its zero-false-negative contract is
    broken), 2 usage.
    """
    from repro.study.parallel import crossval_task

    return _verdict_matrix(
        argv, "crossvalidate",
        "Cross-validate the static linter against the replay-based "
        "conflict and durability oracles.",
        "crossval-cell", crossval_task, _crossval_text)


def _crossval_text(cells: list[dict]) -> str:
    lines = [f"{'configuration':<26} {'pairs':>6} {'missed':>7} "
             f"{'extras':>7}  status"]
    lines.append("-" * len(lines[0]))
    for cell in cells:
        pairs = (cell["hazards"]["checked_pairs"]
                 + cell["durability"]["checked_pairs"])
        missed = (len(cell["hazards"]["false_negatives"])
                  + len(cell["durability"]["false_negatives"]))
        extras = (len(cell["hazards"]["extras"])
                  + len(cell["durability"]["extras"]))
        status = "ok" if cell["ok"] else "FALSE NEGATIVES"
        lines.append(f"{cell['label']:<26} {pairs:>6} {missed:>7} "
                     f"{extras:>7}  {status}")
    bad = [c for c in cells if not c["ok"]]
    lines.append("")
    lines.append(f"{len(cells)} configurations, "
                 f"{len(bad)} with false negatives")
    for cell in bad:
        for msg in (cell["hazards"]["false_negatives"]
                    + cell["durability"]["false_negatives"]):
            lines.append(f"  {msg}")
    return "\n".join(lines)


@_usage_guard
def staticcheck_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study staticcheck`` — static conflict prediction.

    Evaluates each configuration's symbolic I/O plan under the
    interval/stride abstract domain and cross-validates the predicted
    per-semantics conflict sets against the dynamic detector.  Exit
    codes: 0 every cell sound (no dynamic conflict missed), 1 at least
    one missed conflict, 2 usage.
    """
    from repro.study.parallel import staticcheck_task

    return _verdict_matrix(
        argv, "staticcheck",
        "Predict per-semantics conflicts from symbolic I/O plans and "
        "cross-validate the predictions against the dynamic detector.",
        "staticcheck-cell", staticcheck_task, _staticcheck_text)


def _staticcheck_text(cells: list[dict]) -> str:
    lines = [f"{'configuration':<26} {'plan':<6} {'groups':>6} "
             f"{'pairs':>6} {'precision':>9}  status"]
    lines.append("-" * len(lines[0]))
    for cell in cells:
        plan_kind = "exact" if cell["exact"] else "coarse"
        status = "sound" if cell["sound"] else "MISSED CONFLICTS"
        lines.append(
            f"{cell['label']:<26} {plan_kind:<6} "
            f"{cell['groups']:>6} {cell['pairs_checked']:>6} "
            f"{cell['precision']:>9.4f}  {status}")
    bad = [c for c in cells if not c["sound"]]
    lines.append("")
    lines.append(f"{len(cells)} configurations, "
                 f"{len(bad)} with missed dynamic conflicts")
    for cell in bad:
        for name, sem in sorted(cell["semantics"].items()):
            for msg in sem["missed"]:
                lines.append(f"  {cell['label']} [{name}] {msg}")
    return "\n".join(lines)


@_usage_guard
def metrics_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study metrics`` — the observability dashboard.

    Renders the counter/timer/self-trace dashboard for a JSON-lines
    file previously written by ``--metrics``, or (with ``--collect``)
    runs the study matrix live under a fresh registry and reports what
    the simulator did.  Exit codes: 0 rendered, 2 usage (no input,
    unreadable or malformed file).
    """
    from repro.obs import registry as obs
    from repro.obs.export import parse_jsonl, render_dashboard, to_jsonl

    parser = argparse.ArgumentParser(
        prog="python -m repro.study metrics",
        description="Render the metrics dashboard for a --metrics "
                    "JSON-lines file, or collect one live from the "
                    "study matrix.")
    parser.add_argument("file", nargs="?", type=Path, metavar="FILE",
                        help="JSON-lines file written by --metrics; "
                             "omit with --collect")
    parser.add_argument("--collect", action="store_true",
                        help="run the study matrix now and report its "
                             "metrics (ignores the result cache)")
    parser.add_argument("--nranks", type=int, default=4,
                        help="ranks per configuration for --collect "
                             "(default 4)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for --collect "
                             "(default 1 = serial; 0 = one per CPU)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="text = dashboard, json = canonical "
                             "JSON-lines re-emit")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the rendered output to this "
                             "file")
    args = parser.parse_args(argv)

    if args.collect == (args.file is not None):
        raise _UsageError("specify exactly one of FILE or --collect")

    if args.collect:
        from repro.study.cache import ResultCache
        from repro.study.runner import study_cells

        with obs.collecting(trace=True) as reg:
            study_cells(nranks=args.nranks, seed=args.seed,
                        jobs=_matrix_jobs(args),
                        cache=ResultCache.disabled())
    else:
        try:
            raw = args.file.read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read {args.file}: "
                              f"{exc.strerror or exc}")
        try:
            reg, _ = parse_jsonl(raw)
        except (ValueError, KeyError, TypeError) as exc:
            raise _UsageError(
                f"{args.file} is not a --metrics JSON-lines file: {exc}")

    text = to_jsonl(reg) if args.format == "json" \
        else render_dashboard(reg)
    return _emit(args, text.removesuffix("\n"))


@_usage_guard
def fingerprint_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study fingerprint`` — print the code digest.

    CI uses this as the ``actions/cache`` key for ``.repro-cache/``:
    any change to the :mod:`repro` source invalidates every cached
    cell at once, so a restored cache can never serve stale results.
    """
    from repro.study.cache import code_fingerprint

    parser = argparse.ArgumentParser(
        prog="python -m repro.study fingerprint",
        description="Print the repro source fingerprint that scopes "
                    "result-cache keys.")
    parser.parse_args(argv)
    print(code_fingerprint())
    return EXIT_OK


@_usage_guard
def roundtrip_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study roundtrip`` — the ``.rtrc`` parity gate.

    For each selected configuration: trace it, summarize the cell from
    the in-memory records, then convert the trace to a columnar
    ``.rtrc`` file, load it back (zero-copy), rebuild the records, and
    summarize again.  The two reports must be *byte-identical* in the
    canonical ``study all`` serialization, and the columnar conflict
    pipeline must count exactly what the object pipeline counts under
    every semantics model.

    With ``--check FILE`` (repeatable) no configurations are traced:
    each named ``.rtrc`` file is loaded, structurally validated, and
    rebuilt into records instead.  A missing file is a usage error
    (exit 2); a damaged one — truncated, bad CRC, malformed header —
    is a finding (exit 1), never a traceback.  Exit codes: 0 all
    identical/valid, 1 any divergence or damaged file, 2 usage.
    """
    import tempfile

    from repro.core.conflicts import (
        count_conflicts,
        count_conflicts_columnar,
    )
    from repro.core.report import analyze
    from repro.core.semantics import Semantics
    from repro.study.runner import cell_summary, matrix_json
    from repro.tracer.columnar import ColumnarTrace, read_rtrc

    parser = argparse.ArgumentParser(
        prog="python -m repro.study roundtrip",
        description="Assert the binary .rtrc trace format is lossless: "
                    "study reports and conflict counts must be "
                    "byte-identical across a save/load round trip.")
    _add_selection_args(parser, "check")
    parser.add_argument("--nranks", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--keep-dir", type=Path, default=None,
                        metavar="DIR",
                        help="write the .rtrc files here instead of a "
                             "temporary directory (kept afterwards)")
    parser.add_argument("--check", action="append", type=Path,
                        default=None, metavar="FILE",
                        help="validate existing .rtrc file(s) instead "
                             "of tracing configurations (repeatable)")
    args = parser.parse_args(argv)
    if args.check is not None:
        if args.app or args.all:
            raise _UsageError("--check cannot be combined with a "
                              "configuration selection")
        return _roundtrip_check(args.check)
    variants = _selected_variants(args)

    failures = 0
    with tempfile.TemporaryDirectory(prefix="rtrc-") as tmp:
        out_dir = args.keep_dir if args.keep_dir is not None else Path(tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        for variant in variants:
            trace = variant.run(nranks=args.nranks, seed=args.seed)
            before = cell_summary(variant, trace, nranks=args.nranks,
                                  seed=args.seed)
            path = out_dir / (variant.label.replace("/", "_") + ".rtrc")
            ColumnarTrace.from_trace(trace).save(path)
            loaded = read_rtrc(path)
            after = cell_summary(variant, loaded.to_trace(),
                                 nranks=args.nranks, seed=args.seed)
            report_ok = (
                matrix_json([before], nranks=args.nranks, seed=args.seed)
                == matrix_json([after], nranks=args.nranks,
                               seed=args.seed))
            report = analyze(trace)
            counts_ok = all(
                count_conflicts_columnar(loaded, semantics)
                == count_conflicts(report.visibility, report.tables,
                                   semantics)
                for semantics in Semantics)
            ok = report_ok and counts_ok
            failures += not ok
            detail = ("identical" if ok
                      else "report diverged" if not report_ok
                      else "conflict counts diverged")
            print(f"{variant.label:<26} {path.stat().st_size:>9d} bytes "
                  f"{'ok    ' if ok else 'FAIL  '}{detail}")
    if failures:
        print(f"roundtrip: {failures} of {len(variants)} "
              f"configuration(s) diverged", file=sys.stderr)
        return EXIT_FINDINGS
    print(f"roundtrip: {len(variants)} configuration(s) byte-identical "
          f"through .rtrc")
    return EXIT_OK


def _roundtrip_check(files: list[Path]) -> int:
    """Validate on-disk ``.rtrc`` files under the 0/1/2 contract."""
    from repro.errors import AnalysisError
    from repro.tracer.columnar import read_rtrc

    failures = 0
    for path in files:
        if not path.is_file():
            raise _UsageError(f"cannot read {path}: no such file")
        try:
            nrecords = len(read_rtrc(path).to_trace().records)
        except AnalysisError as exc:
            failures += 1
            print(f"{path}  FAIL  {exc}")
            continue
        print(f"{path}  ok    {nrecords} record(s), "
              f"{path.stat().st_size} bytes")
    if failures:
        print(f"roundtrip: {failures} of {len(files)} file(s) damaged",
              file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


@_usage_guard
def serve_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study serve`` — the analysis service.

    Binds, prints one JSON ready line (``{"event": "ready", "host":
    ..., "port": ...}``) on stdout, and serves until SIGINT/SIGTERM,
    then drains admitted requests before exiting 0.  ``--ready-file``
    additionally writes the ready document to a file for scripts that
    cannot capture stdout (the CI smoke job).
    """
    import asyncio
    import json
    import os
    import signal

    parser = argparse.ArgumentParser(
        prog="python -m repro.study serve",
        description="Serve the consistency analyses over length-"
                    "prefixed JSON TCP (see docs/serving.md).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0 = ephemeral; the "
                             "ready line reports the bound port)")
    parser.add_argument("--queue-limit", type=int, default=16,
                        metavar="N",
                        help="max admitted in-flight requests; beyond "
                             "this arrivals get 'overloaded' "
                             "(default 16)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="analysis worker processes (default 2)")
    parser.add_argument("--default-deadline", type=float, default=60.0,
                        metavar="S",
                        help="deadline budget for requests that set "
                             "none (default 60)")
    parser.add_argument("--drain", type=float, default=10.0,
                        metavar="S",
                        help="shutdown grace for in-flight requests "
                             "(default 10)")
    _add_cache_args(parser)
    parser.add_argument("--debug", action="store_true",
                        help="also serve debug endpoints (sleep)")
    parser.add_argument("--ready-file", type=Path, default=None,
                        metavar="FILE",
                        help="write the ready JSON document here too")
    args = parser.parse_args(argv)
    if args.queue_limit < 1 or args.workers < 1:
        raise _UsageError("--queue-limit and --workers must be >= 1")
    if args.default_deadline <= 0 or args.drain < 0:
        raise _UsageError("--default-deadline must be > 0 and "
                          "--drain >= 0")

    from repro.serve.server import AnalysisServer, ServeConfig
    from repro.study.cache import ResultCache

    async def run() -> int:
        cache = ResultCache.from_options(cache_dir=args.cache_dir,
                                         no_cache=args.no_cache)
        server = AnalysisServer(
            ServeConfig(host=args.host, port=args.port,
                        queue_limit=args.queue_limit,
                        workers=args.workers,
                        default_deadline_s=args.default_deadline,
                        drain_s=args.drain, debug=args.debug),
            cache=cache)
        await server.start()
        ready = json.dumps({"event": "ready", "host": args.host,
                            "port": server.port, "pid": os.getpid()},
                           sort_keys=True)
        print(ready, flush=True)
        if args.ready_file is not None:
            args.ready_file.parent.mkdir(parents=True, exist_ok=True)
            args.ready_file.write_text(ready + "\n")

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix event loops: Ctrl-C still unwinds us
        forever = asyncio.ensure_future(server.serve_forever())
        try:
            await stop.wait()
        finally:
            print("[serve: draining]", file=sys.stderr)
            await server.stop()
            forever.cancel()
        return EXIT_OK

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return EXIT_OK
    except OSError as exc:
        raise _UsageError(f"cannot bind {args.host}:{args.port}: "
                          f"{exc.strerror or exc}")


def _parse_request_params(args: argparse.Namespace) -> dict:
    import json

    params: dict = {}
    if args.json:
        try:
            doc = json.loads(args.json)
        except ValueError as exc:
            raise _UsageError(f"--json is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise _UsageError("--json must be a JSON object")
        params.update(doc)
    for entry in args.param or []:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise _UsageError(
                f"--param takes KEY=VALUE, got {entry!r}")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value  # bare strings need no quoting
    return params


@_usage_guard
def request_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study request`` — one query to the service.

    Prints the full response document as JSON.  Exit codes: 0 the
    request succeeded, 1 the server answered ``overloaded``/
    ``deadline``/``internal`` or is unreachable, 2 the request itself
    is bad (``bad_request``, malformed parameters, missing --port).
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.study request",
        description="Issue one request against a running analysis "
                    "server and print the response.")
    parser.add_argument("endpoint", nargs="?",
                        help="endpoint name (healthz, fingerprint, "
                             "metrics, cell, lint, advise, chaos, "
                             "staticcheck)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--param", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="request parameter (repeatable); VALUE "
                             "parses as JSON, falling back to string")
    parser.add_argument("--json", default=None, metavar="DOC",
                        help="request parameters as one JSON object "
                             "(--param entries override)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="S",
                        help="per-request deadline budget in seconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="retry-jitter seed (default 0)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the response to this file")
    args = parser.parse_args(argv)
    if not args.endpoint:
        raise _UsageError("an endpoint name is required")
    if args.port is None:
        raise _UsageError("--port is required (see the server's "
                          "ready line)")
    params = _parse_request_params(args)

    from repro.serve.client import ServeConnectionError, request_sync
    from repro.serve.protocol import ERR_BAD_REQUEST, response_error_code

    try:
        response = request_sync(args.host, args.port, args.endpoint,
                                params, deadline_s=args.deadline,
                                seed=args.seed)
    except ServeConnectionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FINDINGS
    _emit(args, json.dumps(response, indent=2, sort_keys=True))
    code = response_error_code(response)
    if code is None:
        return EXIT_OK
    print(f"{code}: {response['error']['message']}", file=sys.stderr)
    return EXIT_USAGE if code == ERR_BAD_REQUEST else EXIT_FINDINGS


@_usage_guard
def loadtest_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study loadtest`` — the seeded load generator.

    Exit codes: 0 every request succeeded, 1 any request failed (or
    the server is unreachable), 2 usage.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.study loadtest",
        description="Drive a seeded zipf-skewed closed-loop load "
                    "against a running analysis server.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--clients", type=int, default=4, metavar="N")
    parser.add_argument("--requests", type=int, default=25,
                        metavar="N", help="requests per client "
                                          "(default 25)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--zipf", type=float, default=1.2,
                        metavar="S", help="popularity skew exponent "
                                          "(default 1.2)")
    parser.add_argument("--nranks", type=int, default=2,
                        help="ranks per requested cell (default 2)")
    parser.add_argument("--deadline", type=float, default=60.0,
                        metavar="S",
                        help="per-request deadline budget "
                             "(default 60)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)
    if args.port is None:
        raise _UsageError("--port is required (see the server's "
                          "ready line)")

    from repro.serve.client import ServeConnectionError
    from repro.serve.loadgen import LoadSpec, report_text, run_load_sync

    spec = LoadSpec(clients=args.clients,
                    requests_per_client=args.requests,
                    seed=args.seed, zipf_s=args.zipf,
                    nranks=args.nranks, deadline_s=args.deadline)
    try:
        spec.validate()
    except ValueError as exc:
        raise _UsageError(str(exc))
    try:
        report = run_load_sync(args.host, args.port, spec)
    except ServeConnectionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FINDINGS

    as_json = json.dumps(report, indent=2, sort_keys=True)
    print(as_json if args.format == "json" else report_text(report))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(as_json + "\n")
    return EXIT_OK if report["ok"] else EXIT_FINDINGS


@_usage_guard
def cache_main(argv: list[str] | None = None) -> int:
    """``python -m repro.study cache`` — result-store maintenance.

    ``stats`` summarizes the store; ``prune`` evicts by age and/or a
    total-size cap (oldest-first).  Exit codes: 0 done, 2 usage
    (unknown action, prune without a criterion).
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.study cache",
        description="Inspect or prune the content-addressed result "
                    "cache (.repro-cache/).")
    parser.add_argument("action", nargs="?",
                        help="'stats' or 'prune'")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        metavar="DIR",
                        help="cache root (default .repro-cache/ or "
                             "$REPRO_CACHE_DIR)")
    parser.add_argument("--max-age-days", type=float, default=None,
                        metavar="D",
                        help="prune entries not written in D days")
    parser.add_argument("--max-bytes", type=int, default=None,
                        metavar="N",
                        help="prune oldest entries until the store "
                             "fits in N bytes")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what prune would remove, remove "
                             "nothing")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    args = parser.parse_args(argv)
    if args.action not in ("stats", "prune"):
        raise _UsageError("action must be 'stats' or 'prune'")

    from repro.study.cache import ResultCache, prune, usage_stats

    root = ResultCache.from_options(cache_dir=args.cache_dir).root
    if args.action == "stats":
        doc = usage_stats(root)
        lines = [f"cache root: {doc['root']}",
                 f"entries: {doc['entries']} "
                 f"({doc['total_bytes']} bytes, "
                 f"{doc['stray_tempfiles']} stray tempfiles)"]
        if doc.get("oldest_age_s") is not None:
            lines.append(f"age: oldest {doc['oldest_age_s']:.0f}s, "
                         f"newest {doc['newest_age_s']:.0f}s")
        text = "\n".join(lines)
    else:
        if args.max_age_days is None and args.max_bytes is None:
            raise _UsageError("prune needs --max-age-days and/or "
                              "--max-bytes")
        if (args.max_age_days is not None and args.max_age_days < 0) \
                or (args.max_bytes is not None and args.max_bytes < 0):
            raise _UsageError("--max-age-days and --max-bytes must "
                              "be >= 0")
        doc = prune(root,
                    max_age_s=None if args.max_age_days is None
                    else args.max_age_days * 86400.0,
                    max_total_bytes=args.max_bytes,
                    dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        text = (f"{verb} {doc['removed']} of {doc['scanned']} entries "
                f"({doc['removed_bytes']} bytes) and "
                f"{doc['removed_strays']} stray tempfiles; "
                f"{doc['kept']} entries ({doc['kept_bytes']} bytes) "
                f"kept")
        if doc.get("already_gone"):
            text += (f"; {doc['already_gone']} already removed by a "
                     f"concurrent pruner")
    print(json.dumps(doc, indent=2, sort_keys=True)
          if args.format == "json" else text)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
