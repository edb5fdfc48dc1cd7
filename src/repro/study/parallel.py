"""Process-pool execution engine for the study's evaluation matrix.

The paper's campaign is an embarrassingly parallel matrix — every
(application, configuration, seed) cell traces and analyzes
independently — so this module fans cells out across worker processes
and merges the results back in a **deterministic order**.

Determinism is a hard contract, not an aspiration:

* cells are identified by their position in the submitted list and the
  merged results preserve that order exactly, regardless of which
  worker finished first;
* every cell derives its randomness from its own ``(seed, cell)``
  parameters — workers share no mutable state, so a cell computes the
  same bytes whether it runs inline, in a pool of 2, or in a pool
  of 32;
* worker payloads are plain JSON documents, the same representation the
  :mod:`repro.study.cache` stores, so a cached cell and a freshly
  computed cell are indistinguishable downstream.

``jobs=1`` (and single-cell matrices) bypass the pool entirely and run
inline — the serial path stays pure for debugging, and the dedicated
determinism tests compare its output byte-for-byte against the pooled
path.

Layered on the cache, :func:`run_matrix` gives every caller the same
incremental contract: probe the cache in the parent, fan out only the
misses, store what was computed.  ``study all``, ``study chaos``,
``study crossvalidate``, the benchmarks, and CI all go through this one
entry point.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.obs import registry as obs
from repro.study.cache import ResultCache, cache_key

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.apps.registry import RunVariant

#: payload-producing worker: picklable task in, JSON document out
CellWorker = Callable[[tuple], dict]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None`` means one per CPU."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


@dataclass(frozen=True)
class CellSpec:
    """One schedulable cell of the matrix.

    ``key_fields`` must fully determine the payload (they become the
    cache key, together with the cell kind and the code fingerprint);
    ``task`` is the picklable argument handed to the worker when the
    cache misses.
    """

    key_fields: dict[str, Any]
    task: tuple


def variant_cell(variant: RunVariant, nranks: int, seed: int,
                 **extras: Any) -> CellSpec:
    """The one key format for a per-configuration cell.

    Keys on the variant's ``label`` and sorted ``options``, ``nranks``,
    ``seed`` and the cell kind's ``extras``; the worker task is
    ``(variant, nranks, seed, *extras.values())``.  The batch matrix
    subcommands and the serve endpoints all build their cells here, so
    the same work always lands on the same cache entry.
    """
    return CellSpec(
        key_fields={"label": variant.label,
                    "options": dict(sorted(variant.options.items())),
                    "nranks": nranks, "seed": seed, **extras},
        task=(variant, nranks, seed, *extras.values()))


@dataclass
class CellOutcome:
    """One cell's payload plus execution provenance."""

    index: int
    key: str
    payload: dict
    seconds: float = 0.0
    cached: bool = False


@dataclass
class MatrixRun:
    """All outcomes of one :func:`run_matrix` invocation, in order."""

    kind: str
    jobs: int
    outcomes: list[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def payloads(self) -> list[dict]:
        return [o.payload for o in self.outcomes]

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    def summary(self) -> str:
        return (f"{self.kind}: {len(self.outcomes)} cells "
                f"({self.cached} cached, {self.computed} computed) "
                f"in {self.wall_seconds:.2f}s with jobs={self.jobs}")

    def timing_table(self) -> str:
        lines = [f"{'cell':<28} {'seconds':>8}  source"]
        for o, spec_label in zip(
                self.outcomes,
                (o.payload.get("label", f"cell {o.index}")
                 for o in self.outcomes)):
            lines.append(f"{str(spec_label):<28} {o.seconds:>8.3f}  "
                         f"{'cache' if o.cached else 'computed'}")
        return "\n".join(lines)


def _run_timed(worker: CellWorker, task: tuple) -> tuple[dict, float]:
    t0 = time.perf_counter()
    payload = worker(task)
    return payload, time.perf_counter() - t0


def _pool_entry(args: tuple[CellWorker, tuple, bool]
                ) -> tuple[dict, float, dict | None]:
    """Run one cell; optionally under a worker-local metrics registry.

    ``ship_metrics`` is set when the parent has an active registry and
    this entry runs in a pool worker: the worker collects into a fresh
    registry and ships the snapshot home for the parent to merge, so
    sim/pfs instruments survive the process boundary.  Inline runs pass
    ``False`` — their instruments already write the parent registry.
    """
    worker, task, ship_metrics = args
    if not ship_metrics:
        payload, seconds = _run_timed(worker, task)
        return payload, seconds, None
    with obs.collecting(trace=True) as reg:
        with reg.span("study.cell"):
            payload, seconds = _run_timed(worker, task)
        shipped = {"metrics": reg.snapshot(),
                   "trace": reg.tracer.records()
                   if reg.tracer is not None else []}
    return payload, seconds, shipped


def run_matrix(kind: str, cells: Sequence[CellSpec], worker: CellWorker,
               *, jobs: int | None = None,
               cache: ResultCache | None = None) -> MatrixRun:
    """Evaluate every cell, serving cache hits and pooling the misses.

    Results come back in submission order; with the same cells and
    seeds, the payload list is identical for every ``jobs`` value and
    cache state.
    """
    t0 = time.perf_counter()
    cache = cache if cache is not None else ResultCache.disabled()
    jobs = resolve_jobs(jobs)
    run = MatrixRun(kind=kind, jobs=jobs)
    reg = obs.current()

    hits0, misses0 = cache.stats.hits, cache.stats.misses
    pending: list[int] = []
    outcomes: list[CellOutcome | None] = [None] * len(cells)
    for i, spec in enumerate(cells):
        probe_t0 = time.perf_counter()
        key = cache_key(kind, **spec.key_fields)
        payload = cache.get(key)
        if payload is not None:
            outcomes[i] = CellOutcome(
                index=i, key=key, payload=payload,
                seconds=time.perf_counter() - probe_t0, cached=True)
        else:
            outcomes[i] = CellOutcome(index=i, key=key, payload={})
            pending.append(i)

    if pending:
        pooled = jobs > 1 and len(pending) > 1
        # pool workers collect into their own registry and ship the
        # snapshot home; inline cells hit the parent registry directly
        ship = pooled and obs.enabled()
        tasks = [(worker, cells[i].task, ship) for i in pending]
        cell_timer = reg.timer("study.cell_seconds")
        if pooled:
            with ProcessPoolExecutor(max_workers=min(jobs,
                                                     len(pending))) as ex:
                computed = list(ex.map(_pool_entry, tasks))
        else:
            computed = [_pool_entry(t) for t in tasks]
        for i, (payload, seconds, shipped) in zip(pending, computed):
            out = outcomes[i]
            assert out is not None
            out.payload = payload
            out.seconds = seconds
            cache.put(out.key, payload)
            cell_timer.observe(seconds)
            if shipped is not None:
                reg.merge(shipped["metrics"])
                if getattr(reg, "tracer", None) is not None:
                    reg.tracer.merge(shipped["trace"])

    run.outcomes = [o for o in outcomes if o is not None]
    run.wall_seconds = time.perf_counter() - t0
    # the same numbers _print_matrix_stats reports on stderr, kept as
    # durable metrics instead of ad-hoc one-shot strings
    reg.counter(f"study.{kind}.cells").inc(len(run.outcomes))
    reg.counter("study.cells_cached").inc(run.cached)
    reg.counter("study.cells_computed").inc(run.computed)
    reg.counter("study.cache.hits").inc(cache.stats.hits - hits0)
    reg.counter("study.cache.misses").inc(cache.stats.misses - misses0)
    reg.timer("study.matrix_seconds").observe(run.wall_seconds)
    reg.event("study.matrix", kind=kind, jobs=jobs,
              cells=len(run.outcomes), cached=run.cached,
              computed=run.computed,
              seconds=round(run.wall_seconds, 6))
    return run


# -- matrix workers --------------------------------------------------------------
#
# Top-level functions (picklable by reference) taking one primitive
# tuple each.  RunVariant instances pickle cleanly: their program and
# setup callables are module-level functions resolved by import path.


def study_cell_task(task: tuple) -> dict:
    """(variant, nranks, seed) -> study-cell summary.

    With metrics enabled the already-generated trace is additionally
    replayed through the PFS timing model so ``study all --metrics``
    observes the pfs layer too.  The replay populates counters only —
    the returned payload is the same bytes either way.
    """
    from repro.study.runner import cell_summary

    variant, nranks, seed = task
    if not obs.enabled():
        return cell_summary(variant, None, nranks=nranks, seed=seed)
    reg = obs.current()
    trace = variant.run(nranks=nranks, seed=seed)
    payload = cell_summary(variant, trace, nranks=nranks, seed=seed)
    from repro.pfs.config import PFSConfig
    from repro.pfs.replay import replay_trace

    with reg.span("study.pfs_probe", label=variant.label):
        replay_trace(trace, PFSConfig())
    return payload


def trace_task(task: tuple) -> dict:
    """(variant, nranks, seed) -> {"trace": Trace} (pickled wholesale).

    Used by :func:`repro.study.runner.run_study` to parallelize trace
    generation for the table/figure pipeline, where downstream code
    needs the full trace object rather than a JSON summary.
    """
    variant, nranks, seed = task
    return {"trace": variant.run(nranks=nranks, seed=seed)}


def chaos_variant_task(task: tuple) -> dict:
    """(variant, nranks, seed, plan names, semantics names, stripe)
    -> {"cells": [ChaosCell.to_dict(), ...]} for one configuration."""
    from repro.core.semantics import Semantics
    from repro.pfs.chaos import default_fault_plans, variant_cells

    variant, nranks, seed, plan_names, sem_names, stripe = task
    wanted = set(plan_names)
    plans = [p for p in default_fault_plans(seed) if p.name in wanted]
    semantics = tuple(Semantics[name.upper()] for name in sem_names)
    cells = variant_cells(variant, nranks=nranks, seed=seed,
                          plans=plans, semantics=semantics,
                          stripe_size=stripe)
    return {"label": variant.label,
            "cells": [c.to_dict() for c in cells]}


def crossval_task(task: tuple) -> dict:
    """(variant, nranks, seed) -> lint-vs-replay cross-validation cell."""
    from repro.lint.crossval import crossvalidate_variant

    variant, nranks, seed = task
    return crossvalidate_variant(variant, nranks=nranks, seed=seed)


def staticcheck_task(task: tuple) -> dict:
    """(variant, nranks, seed) -> static-vs-dynamic soundness cell."""
    from repro.staticcheck.soundness import staticcheck_variant

    variant, nranks, seed = task
    return staticcheck_variant(variant, nranks=nranks, seed=seed)


def workflow_task(task: tuple) -> dict:
    """(producer ranks, reader ranks, seed) -> workflow summary cell."""
    from repro.study.workflows import canonical_workflow, workflow_summary

    producer_ranks, reader_ranks, seed = task
    result = canonical_workflow(producer_ranks=producer_ranks,
                                reader_ranks=reader_ranks, seed=seed)
    return workflow_summary(result)


__all__ = [
    "CellOutcome",
    "CellSpec",
    "MatrixRun",
    "chaos_variant_task",
    "crossval_task",
    "resolve_jobs",
    "run_matrix",
    "staticcheck_task",
    "study_cell_task",
    "trace_task",
    "variant_cell",
    "workflow_task",
]
