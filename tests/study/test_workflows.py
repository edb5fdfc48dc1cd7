"""Tests for multi-application workflow analysis (§7 extension)."""

import pytest

from repro.apps.base import AppConfig
from repro.apps.registry import find_variant
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.study.workflows import (
    WorkflowStage,
    make_reader_stage,
    run_workflow,
)


def producer_program(ctx, cfg: AppConfig) -> None:
    """A small simulation job: every rank writes one output file."""
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


@pytest.fixture(scope="module")
def pipeline_result():
    return run_workflow([
        WorkflowStage("sim", producer_program,
                      AppConfig(application="sim", nranks=4, seed=3)),
        WorkflowStage("analysis", make_reader_stage("/wf/out"),
                      AppConfig(application="analysis", nranks=2,
                                seed=4)),
    ])


class TestMerging:
    def test_ranks_disjoint(self, pipeline_result):
        assert pipeline_result.trace.nranks == 6
        assert pipeline_result.rank_offsets == [0, 4]
        assert pipeline_result.global_rank(1, 0) == 4

    def test_stages_ordered_in_time(self, pipeline_result):
        t0 = pipeline_result.stage_traces[0]
        merged = pipeline_result.trace
        stage0_max = max(r.tend for r in merged.records if r.rank < 4)
        stage1_min = min(r.tstart for r in merged.records if r.rank >= 4)
        assert stage1_min > stage0_max
        assert len(merged.records) == sum(
            len(t.records) for t in pipeline_result.stage_traces)
        assert len(t0.records) > 0

    def test_record_ids_unique(self, pipeline_result):
        rids = [r.rid for r in pipeline_result.trace.records]
        assert len(rids) == len(set(rids))
        eids = [e.eid for e in pipeline_result.trace.mpi_events]
        assert len(eids) == len(set(eids))

    def test_match_keys_scoped_per_stage(self, pipeline_result):
        keys = {}
        for ev in pipeline_result.trace.mpi_events:
            keys.setdefault(ev.match_key, set()).add(ev.rank)
        # no collective match spans stages (except the dep links)
        for key, ranks in keys.items():
            if key[0] == "workflow-dep":
                continue
            assert max(ranks) < 4 or min(ranks) >= 4, key

    def test_validates_as_trace(self, pipeline_result):
        pipeline_result.trace.validate()


class TestCrossStageAnalysis:
    def test_cross_job_raw_detected_under_eventual(self, pipeline_result):
        """The producer→consumer dependency is a cross-process RAW when
        nothing forces visibility (eventual semantics)."""
        report = analyze(pipeline_result.trace)
        eventual = report.conflicts(Semantics.EVENTUAL)
        assert eventual.flags["RAW-D"]
        # and the conflicting processes belong to different stages
        cross_stage = [
            c for c in eventual
            if (c.first.rank < 4) != (c.second.rank < 4)]
        assert cross_stage

    def test_workflow_is_session_safe(self, pipeline_result):
        """Producer closes before consumer opens: session suffices —
        the file-based workflow pattern needs session, not strong."""
        report = analyze(pipeline_result.trace)
        assert not report.conflicts(Semantics.SESSION)
        assert not report.conflicts(Semantics.COMMIT)
        assert report.weakest_sufficient_semantics() is Semantics.SESSION

    def test_dependency_link_makes_pairs_race_free(self, pipeline_result):
        """With the workflow-manager edge, cross-stage pairs are
        synchronized; without it they would look racy."""
        report = analyze(pipeline_result.trace)
        pairs = [(c.first, c.second)
                 for c in report.conflicts(Semantics.EVENTUAL)]
        from repro.core.happens_before import (
            HappensBefore,
            validate_race_freedom,
        )
        linked = validate_race_freedom(
            HappensBefore(pipeline_result.trace), pairs)
        assert linked.race_free

        unlinked = run_workflow([
            WorkflowStage("sim", producer_program,
                          AppConfig(application="sim", nranks=4, seed=3)),
            WorkflowStage("analysis", make_reader_stage("/wf/out"),
                          AppConfig(application="analysis", nranks=2,
                                    seed=4)),
        ], link_stages=False)
        report2 = analyze(unlinked.trace)
        pairs2 = [(c.first, c.second)
                  for c in report2.conflicts(Semantics.EVENTUAL)]
        raced = validate_race_freedom(HappensBefore(unlinked.trace), pairs2)
        assert not raced.race_free

    def test_registered_app_as_producer_stage(self):
        """A registry proxy can serve as a workflow stage directly."""
        flash = find_variant("FLASH", "HDF5")
        result = run_workflow([
            WorkflowStage("flash", flash.program,
                          flash.config(nranks=8, steps=20)),
            WorkflowStage("postproc", make_reader_stage("/flash/plot"),
                          AppConfig(application="postproc", nranks=2)),
        ])
        report = analyze(result.trace)
        # FLASH's own session conflicts survive the merge...
        assert report.conflicts(Semantics.SESSION).flags["WAW-D"]
        # ...and the cross-job read dependency shows under eventual
        assert report.conflicts(Semantics.EVENTUAL).flags["RAW-D"]
