"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro.study [--nranks 8] [--seed 7] [--out results/]
                          [--jobs N]
    python -m repro.study all [--jobs N] [--format text|json]
                              [--no-cache] [--stats]
    python -m repro.study lint <app|--all> [--format text|json]
    python -m repro.study chaos [--app NAME[/LIB]]... [--all] [--jobs N]
    python -m repro.study roundtrip <app|--all|--check FILE>
    python -m repro.study metrics <file|--collect>
    python -m repro.study fingerprint
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
fault matrix (:mod:`repro.pfs.chaos`); ``roundtrip`` checks the
``.rtrc`` trace format is lossless; ``fingerprint`` prints the code
fingerprint cache keys embed (CI keys its cache restore on it);
``cache`` inspects and prunes the content-addressed result store.

Every matrix subcommand accepts ``--metrics FILE``: the run executes
under a :mod:`repro.obs` registry (bypassing the result cache so the
simulator actually runs) and writes the collected counters, timers,
and self-trace spans as JSON lines to ``FILE`` — stdout is unchanged.
``metrics`` renders the text dashboard for such a file (or collects
one live with ``--collect``).

Exit codes are uniform across every subcommand:

* **0** — ran to completion, nothing to report;
* **1** — a real finding or failure (ERROR diagnostics, an unsound
  chaos cell, a damaged ``.rtrc`` file);
* **2** — usage error (unknown application/library/plan/rule, bad
  flag combination, ``--nranks < 1``, ``--seed < 0`` or ``--jobs < 0``,
  an ``--out`` that cannot be written).
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
    stderr, exit code 2) across ``lint``, ``chaos`` and the single-app
    default mode.
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


def _int_at_least(minimum: int):
    """An argparse ``type`` for integers ``>= minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # keeps argparse's "invalid int value" message
    return parse


def _add_run_args(parser: argparse.ArgumentParser, *, nranks: int,
                  nranks_help: str | None = None) -> None:
    """``--nranks`` and ``--seed``, rejected at parse time (exit 2)
    unless ``nranks >= 1`` and ``seed >= 0``."""
    parser.add_argument("--nranks", type=_int_at_least(1), default=nranks,
                        help=nranks_help)
    parser.add_argument("--seed", type=_int_at_least(0), default=7)


def _add_jobs_arg(parser: argparse.ArgumentParser, *,
                  purpose: str = "the matrix") -> None:
    """``--jobs``, rejected at parse time (exit 2) unless ``>= 0``."""
    parser.add_argument("--jobs", type=_int_at_least(0), default=1,
                        metavar="N",
                        help=f"worker processes for {purpose} "
                             f"(default 1 = serial; 0 = one per CPU)")


def _add_matrix_args(parser: argparse.ArgumentParser, *,
                     nranks: int = 8) -> None:
    """Flags shared by every matrix-shaped subcommand."""
    _add_run_args(parser, nranks=nranks)
    _add_jobs_arg(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update .repro-cache/")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        metavar="DIR",
                        help="result cache root (default "
                             ".repro-cache/ or $REPRO_CACHE_DIR)")
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

    return args.jobs or resolve_jobs(None)


def _emit(args: argparse.Namespace, text: str, *, ok: bool = True,
          run=None, cache=None) -> int:
    """Print a report, mirror it to ``--out``, and return its exit code.

    A matrix ``run`` also reports cache-hit and timing stats — on
    stderr, never in the payload.  Keeping stdout pure is what lets the
    determinism tests (and CI artifact diffs) demand byte-identical
    reports regardless of jobs count or cache temperature.  An ``--out``
    that cannot be written is a usage error.
    """
    print(text)
    if args.out is not None:
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: "
                              f"{exc.strerror or exc}")
    if run is not None:
        print(f"[{run.summary()}; cache: {cache.stats.summary()}]",
              file=sys.stderr)
        if args.stats:
            print(run.timing_table(), file=sys.stderr)
    return EXIT_OK if ok else EXIT_FINDINGS


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {
        "all": all_main,
        "lint": lint_main,
        "chaos": chaos_main,
        "fingerprint": fingerprint_main,
        "roundtrip": roundtrip_main,
        "metrics": metrics_main,
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
    _add_run_args(parser, nranks=8,
                  nranks_help="MPI ranks per run (default 8; the paper "
                              "used 64 and 1024)")
    _add_jobs_arg(parser, purpose="tracing the matrix")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-run reports and CSVs")
    parser.add_argument("--app", default=None, metavar="NAME[/LIB]",
                        help="analyze a single application instead of "
                             "the full study (e.g. FLASH or LAMMPS/ADIOS)")
    args = parser.parse_args(argv)
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: "
                              f"{exc.strerror or exc}")

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
        if not run.report.conflicts(Semantics.SESSION).cross_process_count)
    print()
    print(f"{clean} of {len(results)} configurations are free of "
          f"cross-process conflicts under session semantics.")

    if args.out is not None:
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
    _add_run_args(parser, nranks=8)
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
    _add_run_args(parser, nranks=4,
                  nranks_help="ranks per configuration for --collect "
                              "(default 4)")
    _add_jobs_arg(parser, purpose="--collect")
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
    the in-memory columns, then save the columns as a ``.rtrc`` file,
    load it back (zero-copy) and summarize again.  The two reports
    (conflict counts and flags under every model included) must be
    *byte-identical* in the canonical ``study all`` serialization.

    With ``--check FILE`` (repeatable) no configurations are traced:
    each named ``.rtrc`` file is loaded and validated instead.  A
    missing file is a usage error (exit 2); a damaged one — truncated,
    bad CRC, malformed header, a record the validator rejects — is a
    finding (exit 1), never a traceback.  Exit codes: 0 all
    identical/valid, 1 any divergence or damaged file, 2 usage.
    """
    import tempfile

    from repro.study.runner import cell_summary, matrix_json
    from repro.tracer.columnar import read_rtrc

    parser = argparse.ArgumentParser(
        prog="python -m repro.study roundtrip",
        description="Assert the binary .rtrc trace format is lossless: "
                    "study reports and conflict counts must be "
                    "byte-identical across a save/load round trip.")
    _add_selection_args(parser, "check")
    _add_run_args(parser, nranks=8)
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
            trace.columnar.save(path)
            loaded = read_rtrc(path)
            after = cell_summary(variant, loaded.to_trace(),
                                 nranks=args.nranks, seed=args.seed)
            ok = (matrix_json([before], nranks=args.nranks, seed=args.seed)
                  == matrix_json([after], nranks=args.nranks,
                                 seed=args.seed))
            failures += not ok
            print(f"{variant.label:<26} {path.stat().st_size:>9d} bytes "
                  f"{'ok    identical' if ok else 'FAIL  report diverged'}")
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
