"""Run the full application matrix and hold the per-run analyses."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.apps.registry import RunVariant, all_variants
from repro.core.report import RunReport, analyze
from repro.core.semantics import Semantics
from repro.tracer.trace import Trace


@dataclass
class RunResult:
    """One configuration's trace + analysis + its registry entry."""

    variant: RunVariant
    trace: Trace
    report: RunReport

    @property
    def label(self) -> str:
        return self.variant.label


@dataclass
class StudyResults:
    """All runs of one study invocation."""

    nranks: int
    seed: int
    runs: list[RunResult] = field(default_factory=list)

    def __iter__(self):
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def find(self, label: str) -> RunResult:
        for run in self.runs:
            if run.label == label:
                return run
        raise KeyError(f"no run labelled {label!r}")


def run_study(nranks: int = 8, seed: int = 7,
              variants: Iterable[RunVariant] | None = None,
              jobs: int | None = None) -> StudyResults:
    """Trace and analyze every configuration (the paper's §6 campaign).

    The paper ran at 64 and 1024 ranks and found the I/O patterns
    scale-independent; we default to 8 for speed (pattern shapes are
    stable from 8 ranks up — at 4 some configurations hit their scale
    floor, e.g. FLASH wants 6 aggregators).

    ``jobs`` fans the per-configuration tracing out over a process pool
    (``None``/``1`` stays serial).  Each cell seeds its own simulator
    from ``(variant, nranks, seed)`` alone, so the results are
    identical — ordering included — for every ``jobs`` value.
    """
    pool = list(variants) if variants is not None else all_variants()
    results = StudyResults(nranks=nranks, seed=seed)
    if jobs is not None and jobs > 1 and len(pool) > 1:
        from repro.study.parallel import (
            CellSpec,
            run_matrix,
            trace_task,
        )

        matrix = run_matrix(
            "trace",
            [CellSpec(key_fields={}, task=(v, nranks, seed))
             for v in pool],
            trace_task, jobs=jobs)
        traces = [payload["trace"] for payload in matrix.payloads]
    else:
        traces = [v.run(nranks=nranks, seed=seed) for v in pool]
    for variant, trace in zip(pool, traces):
        results.runs.append(RunResult(
            variant=variant, trace=trace, report=analyze(trace)))
    return results


# -- JSON-able per-cell summaries (the cacheable unit of `study all`) ----------

#: the relaxed models summarized per cell, in presentation order
SUMMARY_SEMANTICS: tuple[Semantics, ...] = (
    Semantics.SESSION, Semantics.COMMIT, Semantics.EVENTUAL,
    Semantics.OBJECT)


def cell_summary(variant: RunVariant, trace: Trace | None = None, *,
                 nranks: int = 8, seed: int = 7) -> dict:
    """One configuration's analysis as a plain JSON document.

    This is the unit the result cache stores and the process pool ships
    between workers: every value is a deterministic pure function of
    ``(variant, nranks, seed)`` and the analysis code — no timings, no
    host state — so serial, parallel, and cached evaluations of the
    same cell are byte-identical once serialized canonically.
    """
    if trace is None:
        trace = variant.run(nranks=nranks, seed=seed)
    report = analyze(trace)
    bytes_read, bytes_written = trace.bytes_moved()
    primary = report.sharing[0]
    conflicts = {}
    for semantics in SUMMARY_SEMANTICS:
        cs = report.conflicts(semantics)
        conflicts[semantics.name.lower()] = {
            "count": len(cs),
            "cross_process": len(cs.cross_process_only),
            "flags": dict(cs.flags),
            "files": sorted(cs.paths),
        }
    metadata = report.metadata_conflicts
    return {
        "label": variant.label,
        "application": variant.application,
        "io_library": variant.io_library,
        "variant": variant.variant_suffix,
        "nranks": trace.nranks,
        "seed": seed,
        "records": len(trace.records),
        "data_files": len(trace.data_paths),
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "xy": primary.xy(trace.nranks),
        "pattern": str(primary.pattern),
        "conflicts": conflicts,
        "metadata_deps": len(metadata),
        "metadata_cross_process": len(metadata.cross_process),
        "weakest_semantics":
            report.weakest_sufficient_semantics().name.lower(),
        "object_store_compatible": report.object_store_compatible(),
        "compatible_filesystems":
            [f.name for f in report.compatible_filesystems()],
    }


def study_cells(nranks: int = 8, seed: int = 7,
                variants: Iterable[RunVariant] | None = None,
                jobs: int | None = None,
                cache=None):
    """The ``study all`` matrix as summaries: one JSON cell per variant.

    Returns a :class:`repro.study.parallel.MatrixRun`; its ``payloads``
    are the cells in registry order.  With a cache, unchanged cells are
    served from disk instead of re-simulated.
    """
    from repro.study.parallel import run_matrix, study_cell_task, variant_cell

    pool = list(variants) if variants is not None else all_variants()
    specs = [variant_cell(v, nranks, seed) for v in pool]
    return run_matrix("study-cell", specs, study_cell_task,
                      jobs=jobs, cache=cache)


def matrix_json(cells: list[dict], *, nranks: int, seed: int) -> str:
    """Canonical serialization of the ``study all`` matrix.

    Byte-identical across serial/parallel/cached evaluations of the
    same ``(cells, nranks, seed)`` — the determinism tests and the CI
    artifact diff both rely on this exact form.
    """
    return json.dumps({"nranks": nranks, "seed": seed, "cells": cells},
                      sort_keys=True, indent=2)
