"""Multi-application workflow analysis (paper §7 future work).

    "we plan to expand our conflicts detection algorithm to support ...
    complex HPC workflows consisting of multiple applications"

A *workflow* here is a sequence of jobs sharing one file system: a
simulation stage writes output files, an analysis stage reads them.
Each stage runs as its own simulated job (own engine, own ranks); this
module merges the per-stage traces into one analyzable trace:

* stage timestamps are shifted so stage ``k`` begins after stage
  ``k-1`` ends (plus a scheduler gap);
* stage ranks are remapped to disjoint global process ids — the
  analysis must treat a consumer job's rank 0 as a *different process*
  than the producer job's rank 0;
* record/event ids and collective match keys are renamed to stay
  globally unique;
* optionally, a synthetic dependency event (the workflow manager's
  "stage done → stage start" edge) links consecutive stages so the
  happens-before validation knows the stages are externally ordered.

The merged trace runs through the unchanged §5 pipeline.  The
characteristic result (pinned by tests): a file-based producer/consumer
workflow is **session-safe** (the producer closes its outputs before
the consumer opens them) but **not eventual-safe** — cross-job RAW
dependencies remain conflicts when no operation forces visibility,
which quantifies the paper's §3.5 caution about eventual consistency
for pipelined workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.apps.base import AppConfig, AppProgram, run_application
from repro.posix.vfs import VirtualFileSystem
from repro.tracer.events import MPIEvent, TraceRecord
from repro.tracer.trace import Trace


@dataclass
class WorkflowStage:
    """One job of the workflow."""

    name: str
    program: AppProgram
    config: AppConfig
    setup: Callable[[VirtualFileSystem, AppConfig], None] | None = None


@dataclass
class WorkflowResult:
    """Merged trace plus per-stage bookkeeping."""

    trace: Trace
    stage_traces: list[Trace]
    vfs: VirtualFileSystem
    #: global process-id offset of each stage's rank 0
    rank_offsets: list[int] = field(default_factory=list)

    def global_rank(self, stage: int, rank: int) -> int:
        return self.rank_offsets[stage] + rank


def run_workflow(stages: list[WorkflowStage], *, gap: float = 1.0,
                 link_stages: bool = True,
                 meta: dict[str, Any] | None = None) -> WorkflowResult:
    """Execute the stages sequentially over one shared file system and
    return the merged, analyzable trace."""
    vfs = VirtualFileSystem()
    stage_traces: list[Trace] = []
    for stage in stages:
        stage_traces.append(run_application(
            stage.config, stage.program, setup=stage.setup, vfs=vfs))

    records: list[TraceRecord] = []
    events: list[MPIEvent] = []
    rank_offsets: list[int] = []
    t_cursor = 0.0
    rank_cursor = 0
    rid_cursor = 0
    eid_cursor = 0
    link_points: list[tuple[int, float, int, float]] = []

    for i, trace in enumerate(stage_traces):
        rank_offsets.append(rank_cursor)
        c = trace.columnar.columns
        t_lo = min([min(c["tstart"].tolist(), default=0.0),
                    *c["ev_tstart"].tolist()])
        t_hi = max([max(c["tend"].tolist(), default=0.0),
                    *c["ev_tend"].tolist()])
        dt = t_cursor - t_lo
        records.extend(replace(r, rid=r.rid + rid_cursor,
                               rank=r.rank + rank_cursor,
                               tstart=r.tstart + dt, tend=r.tend + dt)
                       for r in trace.records)
        events.extend(replace(e, eid=e.eid + eid_cursor,
                              rank=e.rank + rank_cursor,
                              match_key=("stage", i) + tuple(e.match_key),
                              tstart=e.tstart + dt, tend=e.tend + dt)
                      for e in trace.mpi_events)
        link_points.append((rank_cursor, t_cursor - gap / 2,
                            rank_cursor, t_cursor + (t_hi - t_lo)
                            + gap / 4))
        rid_cursor += int(c["rid"].max(initial=0)) + 1
        eid_cursor += int(c["ev_eid"].max(initial=0)) + 1
        rank_cursor += trace.nranks
        t_cursor += (t_hi - t_lo) + gap

    if link_stages:
        # the workflow manager's dependency: stage i's completion
        # happens-before stage i+1's start (modelled as a message from
        # the finished stage's rank 0 to the next stage's rank 0,
        # placed before the next stage's startup barrier)
        for i in range(len(stage_traces) - 1):
            src_rank = rank_offsets[i]
            dst_rank = rank_offsets[i + 1]
            _, _, _, src_end = link_points[i]
            dst_start, _ = link_points[i + 1][1], None
            key = ("workflow-dep", i)
            events.append(MPIEvent(
                eid=eid_cursor, rank=src_rank, kind="send",
                match_key=key, role="sender",
                tstart=src_end, tend=src_end + 1e-6))
            eid_cursor += 1
            events.append(MPIEvent(
                eid=eid_cursor, rank=dst_rank, kind="recv",
                match_key=key, role="receiver",
                tstart=link_points[i + 1][1],
                tend=link_points[i + 1][1] + 1e-6))
            eid_cursor += 1

    records.sort(key=lambda r: (r.tstart, r.rank, r.rid))
    events.sort(key=lambda e: (e.tstart, e.rank, e.eid))
    merged = Trace(
        nranks=rank_cursor, records=records, mpi_events=events,
        meta={"workflow": [s.name for s in stages], **(meta or {})})
    return WorkflowResult(trace=merged, stage_traces=stage_traces,
                          vfs=vfs, rank_offsets=rank_offsets)


# -- the canonical producer/consumer pipeline ------------------------------------


def _producer_program(ctx, cfg: AppConfig) -> None:
    """Simulation stage: every rank writes one output part file."""
    from repro.posix import flags as F

    px = ctx.posix
    if ctx.rank == 0:
        px.mkdir("/wf")
        px.mkdir("/wf/out")
    ctx.comm.barrier()
    fd = px.open(f"/wf/out/part{ctx.rank:03d}",
                 F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
    for _ in range(4):
        px.write(fd, 8192)
    px.close(fd)
    ctx.comm.barrier()


def canonical_workflow(*, producer_ranks: int = 4, reader_ranks: int = 2,
                       seed: int = 3) -> WorkflowResult:
    """The module's characteristic pipeline: simulate → analyze.

    A producer job writes one part file per rank, then a consumer job
    reads them back — the file-based coupling pattern the paper's §3.5
    warns is unsafe under eventual consistency.  Deterministic in
    ``(producer_ranks, reader_ranks, seed)``, which makes it a
    schedulable (and cacheable) cell of the ``study all`` matrix.
    """
    return run_workflow([
        WorkflowStage("sim", _producer_program,
                      AppConfig(application="sim", nranks=producer_ranks,
                                seed=seed)),
        WorkflowStage("analysis", make_reader_stage("/wf/out"),
                      AppConfig(application="analysis",
                                nranks=reader_ranks, seed=seed + 1)),
    ])


def workflow_summary(result: WorkflowResult) -> dict:
    """JSON summary of a workflow's cross-stage semantics verdict.

    Mirrors :func:`repro.study.runner.cell_summary`: deterministic pure
    data only, so serial/parallel/cached evaluations agree bytewise.
    """
    from repro.core.report import analyze
    from repro.core.semantics import Semantics

    report = analyze(result.trace)
    conflicts = {}
    for semantics in (Semantics.SESSION, Semantics.COMMIT,
                      Semantics.EVENTUAL):
        cs = report.conflicts(semantics)
        conflicts[semantics.name.lower()] = {
            "count": len(cs),
            "cross_process": cs.cross_process_count,
            "flags": dict(cs.flags),
        }
    return {
        "label": "workflow " + "→".join(
            result.trace.meta.get("workflow", [])),
        "stages": list(result.trace.meta.get("workflow", [])),
        "nranks": result.trace.nranks,
        "records": len(result.trace.records),
        "conflicts": conflicts,
        "weakest_semantics":
            report.weakest_sufficient_semantics().name.lower(),
    }


# -- a reusable analysis-stage program ------------------------------------------


def make_reader_stage(directory: str, *, chunk: int = 16384
                      ) -> AppProgram:
    """An analysis job: rank 0 lists ``directory``; files are divided
    round-robin over the ranks, each read front to back."""

    def program(ctx, cfg: AppConfig) -> None:
        from repro.posix import flags as F

        px = ctx.posix
        names = ctx.comm.bcast(
            px.readdir(directory) if ctx.rank == 0 else None, root=0)
        for i, name in enumerate(sorted(names)):
            if i % ctx.nranks != ctx.rank:
                continue
            path = f"{directory}/{name}"
            fd = px.open(path, F.O_RDONLY)
            while px.read(fd, chunk):
                pass
            px.close(fd)
        ctx.comm.barrier()

    return program
