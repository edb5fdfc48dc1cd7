"""Per-run analysis report: the one-stop result object.

:func:`analyze` runs the full pipeline on a trace; :class:`RunReport`
computes each analysis once per trace and renders the per-application
report the paper published alongside its data (function counters, I/O
sizes, per-file conflicts, pattern mixes, metadata usage, semantics
verdict).
"""

from __future__ import annotations

from dataclasses import dataclass

# a report builds its HappensBefore through the module attribute, so
# instrumentation that wraps that attribute sees every build
from repro.core import happens_before as hb_module
from repro.core.conflicts import (
    LABELS,
    ConflictSet,
    VisibilityIndex,
    detect_conflicts,
)
from repro.core.highlevel import SharingPattern, classify_sharing
from repro.core.metadata import MetadataUsage, metadata_usage
from repro.core.metadata_conflicts import (
    MetadataConflictSet,
    detect_metadata_conflicts,
)
from repro.core.offsets import reconstruct_offsets
from repro.core.overlaps import overlap_rank_matrix
from repro.core.patterns import (
    TransitionMix,
    global_pattern_mix,
    local_pattern_mix,
)
from repro.core.records import AccessList, AccessTable, group_by_path
from repro.core.semantics import (
    FileSystemInfo,
    Semantics,
    compatible_filesystems,
    object_store_compatible,
    weakest_sufficient_semantics,
)
from repro.core.happens_before import (
    HappensBefore,
    RaceReport,
    validate_race_freedom,
)
from repro.obs import registry as obs
from repro.tracer.profile import TraceProfile, profile_trace
from repro.tracer.trace import Trace
from repro.util.formatting import human_bytes, percentage
from repro.util.tables import AsciiTable


def _stage(timer: str, *inputs: str):
    """Make a :class:`RunReport` method a stage computed once per trace.

    The method gets the stages named in ``inputs``, computed first, and
    runs under the repro.obs timer ``timer``, which so times this stage
    alone.  Its result is kept in the trace's
    :attr:`~repro.tracer.columnar.ColumnarTrace.memo`, which every
    report of the trace shares.  Stage results hold arrays, never the
    trace, so the memo forms no reference cycle.
    """
    def wrap(build):
        name = build.__name__

        def get(self):
            memo = self.trace.columnar.memo
            if name not in memo:
                args = [getattr(self, stage) for stage in inputs]
                with obs.current().timer(timer).time():
                    memo[name] = build(self, *args)
            return memo[name]

        get.__doc__ = build.__doc__
        return property(get)
    return wrap


@dataclass
class RunReport:
    """Lazy bundle of every analysis for one traced run.

    Every report of one trace shares each stage's result (see
    :func:`_stage`).
    """

    trace: Trace

    # -- pipeline stages (computed once per trace) ----------------------------

    @_stage("core.offsets_seconds")
    def accesses(self) -> AccessList:
        """Offset-resolved POSIX data accesses (§5.1), sorted by file,
        then ``(tstart, rid)``."""
        return reconstruct_offsets(self.trace)

    @_stage("core.tables_seconds", "accesses")
    def tables(self, accesses: AccessList) -> dict[str, AccessTable]:
        """Per-file access tables, rows in ``(tstart, rid)`` order: the
        accesses' own arrays and where each file's rows start.

        Every later stage reads these columns.
        """
        return group_by_path(accesses)

    @_stage("core.visibility_seconds")
    def visibility(self) -> VisibilityIndex:
        """Open/close/commit timelines, shared by every model."""
        return VisibilityIndex(self.trace)

    def conflicts(self, semantics: Semantics) -> ConflictSet:
        """Every conflict under one model.  The models share one overlap
        sweep and the timelines."""
        memo = self.trace.columnar.memo
        key = ("conflicts", semantics)
        if key not in memo:
            vis, tables = self.visibility, self.tables
            timer = f"core.conflicts.{semantics.name.lower()}_seconds"
            with obs.current().timer(timer).time():
                memo[key] = detect_conflicts(
                    vis, tables, semantics,
                    shared=memo.setdefault("shared", {}))
        return memo[key]

    @property
    def conflicts_by_model(self) -> dict[Semantics, ConflictSet]:
        return {s: self.conflicts(s)
                for s in (Semantics.SESSION, Semantics.COMMIT,
                          Semantics.EVENTUAL, Semantics.OBJECT)}

    @_stage("core.sharing_seconds", "tables")
    def sharing(self, tables) -> list[SharingPattern]:
        return classify_sharing(tables, self.trace.nranks)

    @_stage("core.local_mix_seconds", "tables")
    def local_mix(self, tables) -> TransitionMix:
        return local_pattern_mix(tables)

    @_stage("core.global_mix_seconds", "tables")
    def global_mix(self, tables) -> TransitionMix:
        return global_pattern_mix(tables)

    @_stage("core.metadata_seconds")
    def metadata(self) -> MetadataUsage:
        return metadata_usage(self.trace)

    @_stage("core.profile_seconds", "tables")
    def profile(self, tables) -> TraceProfile:
        """Darshan-style per-file counters for this run."""
        return profile_trace(self.trace, tables)

    @_stage("core.metadata_conflicts_seconds")
    def metadata_conflicts(self) -> MetadataConflictSet:
        """Namespace produce/consume pairs (the paper's future work;
        relevant for relaxed-*metadata* systems like GekkoFS/BatchFS)."""
        return detect_metadata_conflicts(self.trace)

    @_stage("core.hb_build_seconds")
    def happens_before(self) -> HappensBefore:
        """The run's communication order (§5.2), which the race check
        and the lint rules query."""
        return hb_module.HappensBefore(self.trace)

    # -- verdicts ---------------------------------------------------------------

    def weakest_sufficient_semantics(
            self, *, same_process_ordering: bool = True) -> Semantics:
        """The weakest PFS model this run tolerates (§6.3 logic)."""
        return weakest_sufficient_semantics(
            self.conflicts_by_model,
            same_process_ordering=same_process_ordering)

    def compatible_filesystems(self) -> list[FileSystemInfo]:
        return compatible_filesystems(self.conflicts_by_model)

    def object_store_compatible(
            self, *, same_process_ordering: bool = True) -> bool:
        """Whole-object verdict: safe on an immutable-PUT backend?"""
        return object_store_compatible(
            self.conflicts_by_model,
            same_process_ordering=same_process_ordering)

    def overlap_matrix(self, path: str):
        """The paper's rank-pair overlap table ``P[r_i, r_j]`` for one
        file (Algorithm 1's output form)."""
        return overlap_rank_matrix(self.tables[path], self.trace.nranks)

    def validate(self, semantics: Semantics = Semantics.SESSION,
                 *, raise_on_race: bool = False) -> RaceReport:
        """§5.2 validation: conflicting pairs must be synchronized."""
        pairs = self.conflicts(semantics).access_pairs()
        order = self.happens_before
        with obs.current().timer("core.hb_seconds").time():
            return validate_race_freedom(order, pairs,
                                         raise_on_race=raise_on_race)

    # -- presentation ---------------------------------------------------------------

    @property
    def name(self) -> str:
        meta = self.trace.meta
        app = meta.get("application", meta.get("app", "run"))
        lib = meta.get("io_library")
        return f"{app}-{lib}" if lib else str(app)

    def to_text(self) -> str:
        """The detailed per-run report (counters, sizes, conflicts...)."""
        lines = [f"=== I/O analysis report: {self.name} "
                 f"({self.trace.nranks} ranks) ==="]
        rd, wr = self.trace.bytes_moved()
        lines.append(f"POSIX bytes read {human_bytes(rd)}, "
                     f"written {human_bytes(wr)}; "
                     f"{len(self.trace.records)} records across "
                     f"{len(self.trace.data_paths)} data files")

        counters = AsciiTable(["function", "calls"],
                              title="Function counters (POSIX layer)")
        from repro.tracer.events import Layer
        for func, count in sorted(
                self.trace.function_counts(Layer.POSIX).items()):
            counters.add_row(func, count)
        lines.append(counters.render())

        share = AsciiTable(
            ["file group", "X-Y", "files", "writers", "pattern",
             "bytes written"],
            title="High-level sharing patterns")
        for g in self.sharing:
            share.add_row(g.group, g.xy(self.trace.nranks), g.nfiles,
                          len(g.writer_ranks), g.pattern,
                          human_bytes(g.bytes_written))
        lines.append(share.render())

        mixes = AsciiTable(["view", "consecutive", "monotonic", "random"],
                           title="Fine-grained access mix")
        for label, mix in (("local", self.local_mix),
                           ("global", self.global_mix)):
            mixes.add_row(label,
                          percentage(mix.consecutive, mix.total),
                          percentage(mix.monotonic, mix.total),
                          percentage(mix.random, mix.total))
        lines.append(mixes.render())

        for semantics in (Semantics.SESSION, Semantics.COMMIT):
            cs = self.conflicts(semantics)
            lines.append(f"Conflicts under {semantics.name.lower()} "
                         f"semantics: {len(cs)}"
                         + (f" [{', '.join(k for k, v in cs.flags.items() if v)}]"
                            if cs else ""))
            for f in cs.files:
                cells = set((2 * ~f.waw + ~f.same).tolist())
                kinds = sorted(LABELS[i] for i in cells)
                lines.append(f"  {f.table.path}: {len(f.first)} "
                             f"({', '.join(kinds)})")
        mc = self.metadata_conflicts
        lines.append(f"Metadata produce/consume dependencies: {len(mc)} "
                     f"({len(mc.cross_process)} cross-process)")
        verdict = self.weakest_sufficient_semantics()
        lines.append(f"Weakest sufficient semantics (assuming same-process "
                     f"ordering): {verdict.title}")
        obj = self.object_store_compatible()
        lines.append(f"Object-store compatible (whole-object PUT/GET): "
                     f"{'yes' if obj else 'no'}")
        fs_names = ", ".join(f.name for f in self.compatible_filesystems())
        lines.append(f"Compatible file systems: {fs_names}")
        return "\n".join(lines)


def analyze(trace: Trace) -> RunReport:
    """Run the paper's full analysis pipeline on one trace.

    The trace is validated once (a check by
    :func:`~repro.tracer.columnar.read_rtrc` counts), and reports of one
    trace share every stage, so analyzing it again computes nothing.
    """
    if not trace.columnar.memo.get("valid"):
        trace.validate()
    return RunReport(trace)
