"""Which public calls of the stack belong to which layer.

:func:`instrument` puts spans around the public API of every layer,
``apps -> sim -> mpi -> iolibs -> mpiio -> posix -> tracer -> core ->
study``, and counts the work done from call results.  Each span layer's
CPU self time is reported as the metric :data:`TIME_METRICS` names.

The other work counts come from the traces a pass carries
(``tracer.records*``, ``mpi.events``; see ``workloads.PassResult``) and
from the repro.obs counters the engine and the VFS already keep
(:data:`OBS_COUNTERS`).
"""

from __future__ import annotations

from repro.apps.registry import RunVariant
from repro.core import conflicts, happens_before, report
from repro.iolibs import AdiosStream, H5File, NetCDFFile, SiloGroupWriter
from repro.mpi.comm import Communicator, SubComm
from repro.mpiio.file import MPIFile
from repro.posix.api import PosixAPI
from repro.posix.vfs import VirtualFileSystem
from repro.sim.engine import SimEngine
from repro.study import runner
from repro.tracer import columnar
from repro.tracer.recorder import Recorder
from repro.tracer.trace import Trace
from spans import SpanTracer

MODELS = ("session", "commit", "eventual", "object")
RECORD_LAYERS = ("posix", "mpiio", "hdf5", "netcdf", "adios", "silo")

#: span layer -> the per-layer metric that reports its CPU self time
TIME_METRICS = {
    "apps": "apps.self_s",
    "sim": "sim.dispatch_s",
    "mpi": "mpi.self_s",
    "iolibs": "iolibs.self_s",
    "mpiio": "mpiio.self_s",
    "posix": "posix.self_s",
    "posix.vfs": "posix.vfs.self_s",
    "tracer.record": "tracer.record_s",
    "tracer.build": "tracer.build_s",
    "tracer.rtrc_load": "tracer.rtrc_load_s",
    "tracer.to_trace": "tracer.to_trace_s",
    "tracer.validate": "tracer.validate_s",
    "core.offsets": "core.offsets_s",
    "core.overlaps": "core.overlaps_s",
    **{f"core.conflicts.{m}": f"core.conflicts_s.{m}" for m in MODELS},
    "core.patterns": "core.patterns_s",
    "core.metadata": "core.metadata_s",
    "core.hb_build": "core.hb_build_s",
    "core.hb_query": "core.hb_query_s",
    "study.cell_summary": "study.cell_summary_s",
}

#: repro.obs counters read after each traced pass
OBS_COUNTERS = ("sim.checkpoints", "sim.blocks", "posix.vfs.writes",
                "posix.vfs.reads")

#: work counts reported beside the timings; they repeat exactly
COUNT_METRICS = (
    "sim.handoffs", *OBS_COUNTERS, "mpi.events", "tracer.records",
    *(f"tracer.records.{layer}" for layer in RECORD_LAYERS),
    "core.accesses", "core.overlap_pairs",
    *(f"core.conflicts.{m}" for m in MODELS),
    "core.hb_pairs_checked",
)

#: the unit of every per-layer metric, in report order
METRIC_UNITS = {
    **dict.fromkeys(TIME_METRICS.values(), "s"),
    **dict.fromkeys(COUNT_METRICS, "count"),
    "sim.handoff_us": "us",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
}


def _conflicts_layer(trace, tables, semantics, *args, **kwargs) -> str:
    return f"core.conflicts.{semantics.name.lower()}"


def instrument(tracer: SpanTracer) -> None:
    """Span every layer's public calls until ``tracer.uninstall()``."""
    counts = tracer.counts

    def count(name, amount=len):
        def add(result) -> None:
            counts[name] += amount(result)
        return add

    def count_conflicts(cs) -> None:
        counts[f"core.conflicts.{cs.semantics.name.lower()}"] += len(cs)

    tracer.patch(RunVariant, "run", "apps")
    engine_run = vars(SimEngine)["run"]

    def run(engine, program, services_factory=None):
        # each rank thread's share of the application is an apps span
        return engine_run(engine, tracer.wrap("apps", program),
                          services_factory)

    tracer.replace(SimEngine, "run", run)
    tracer.patch(SimEngine, "checkpoint", "sim")
    tracer.patch(SimEngine, "wait_until", "sim")
    for cls in (Communicator, SubComm):
        tracer.patch_methods(cls, "mpi")
    for cls in (H5File, NetCDFFile, AdiosStream, SiloGroupWriter):
        tracer.patch_methods(cls, "iolibs")
    tracer.patch_methods(MPIFile, "mpiio")
    tracer.patch_methods(PosixAPI, "posix")
    tracer.patch_methods(VirtualFileSystem, "posix.vfs")
    tracer.patch(Recorder, "record", "tracer.record")
    tracer.patch(Recorder, "record_mpi", "tracer.record")
    tracer.patch(Recorder, "build_trace", "tracer.build")
    tracer.patch(columnar, "read_rtrc", "tracer.rtrc_load")
    tracer.patch(columnar.ColumnarTrace, "to_trace", "tracer.to_trace")
    tracer.patch(Trace, "validate", "tracer.validate")
    # core functions are patched where RunReport looks them up
    tracer.patch(report, "reconstruct_offsets", "core.offsets",
                 on_result=count("core.accesses"))
    tracer.patch(report, "group_by_path", "core.offsets")
    tracer.patch(conflicts, "find_overlaps", "core.overlaps",
                 on_result=count("core.overlap_pairs"))
    tracer.patch(report, "detect_conflicts", _conflicts_layer,
                 on_result=count_conflicts)
    for name in ("classify_sharing", "local_pattern_mix",
                 "global_pattern_mix"):
        tracer.patch(report, name, "core.patterns")
    for name in ("metadata_usage", "detect_metadata_conflicts"):
        tracer.patch(report, name, "core.metadata")
    # validation = HappensBefore construction + access_ordered queries
    tracer.patch(report, "validate_race_freedom", "core.hb_query",
                 on_result=count("core.hb_pairs_checked",
                                 lambda race: race.checked_pairs))
    tracer.patch(happens_before, "HappensBefore", "core.hb_build")
    tracer.patch(runner, "cell_summary", "study.cell_summary")
