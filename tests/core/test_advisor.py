"""Tests for the conflict-repair advisor (§4.1)."""

from repro.core.advisor import FixKind, advice_text, suggest_fixes
from repro.core.semantics import Semantics
from tests.core.test_conflicts import TraceBuilder


class TestSuggestions:
    def test_commit_conflict_suggests_fsync(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.COMMIT))
        fixes = suggest_fixes(cs, cs.semantics)
        assert len(fixes) == 1
        fix = fixes[0]
        assert fix.kind is FixKind.INSERT_COMMIT
        assert fix.writer_rank == 0
        assert fix.path == "/f"
        assert fix.after_func == "pwrite"
        assert not fix.library_side

    def test_session_cross_rank_suggests_close_reopen(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .write(1, "/f", 0, 10)
              .conflicts(Semantics.SESSION))
        fixes = suggest_fixes(cs, cs.semantics)
        assert fixes[0].kind is FixKind.CLOSE_THEN_REOPEN
        assert fixes[0].reader_rank == 1

    def test_session_same_rank_suggests_commit(self):
        cs = (TraceBuilder()
              .open(0, "/f")
              .write(0, "/f", 0, 10)
              .read(0, "/f", 0, 10)
              .conflicts(Semantics.SESSION))
        fixes = suggest_fixes(cs, cs.semantics)
        assert fixes[0].kind is FixKind.INSERT_COMMIT

    def test_dedup_counts_resolved_pairs(self):
        b = TraceBuilder()
        b.open(0, "/f").open(1, "/f")
        for _ in range(5):
            b.write(0, "/f", 0, 10)
        b.read(1, "/f", 0, 10)
        fixes = suggest_fixes(b.conflicts(Semantics.COMMIT),
                              Semantics.COMMIT)
        # many pairs, one (path, writer, kind) bucket
        same_rank = [f for f in fixes if f.reader_rank is None]
        assert len(same_rank) >= 1
        assert sum(f.conflicts_resolved for f in fixes) >= 5

    def test_earliest_insertion_point_chosen(self):
        b = TraceBuilder()
        b.open(0, "/f").open(1, "/f")
        b.write(0, "/f", 0, 10)     # t=3
        b.write(0, "/f", 0, 10)     # t=4
        b.read(1, "/f", 0, 10)
        fixes = suggest_fixes(b.conflicts(Semantics.COMMIT),
                              Semantics.COMMIT)
        commit_fix = next(f for f in fixes
                          if f.kind is FixKind.INSERT_COMMIT)
        assert commit_fix.after_time == 3.0

    def test_empty_conflicts_no_advice(self):
        cs = TraceBuilder().open(0, "/f").conflicts(Semantics.SESSION)
        assert suggest_fixes(cs, cs.semantics) == []
        assert "nothing to fix" in advice_text(cs)

    def test_advice_text_renders(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.COMMIT))
        text = advice_text(cs)
        assert "/f" in text and "insert-commit" in text


class TestOnRealApps:
    def test_flash_advice_targets_library_metadata(self, study8):
        """FLASH's conflicts come from HDF5 metadata: the advisor must
        attribute the fixes to the I/O library (the paper's point that
        library-introduced conflicts are fixable in the library)."""
        report = study8.find("FLASH-HDF5 fbs").report
        fixes = suggest_fixes(report.conflicts(Semantics.SESSION),
                              Semantics.SESSION)
        assert fixes
        assert all(f.library_side for f in fixes)
        assert all("/flash/" in f.path for f in fixes)

    def test_advice_is_sound_for_flash(self, variant_by_label):
        """Applying commit-after-write everywhere (the heavy-handed
        version of the advice) yields a commit-clean trace — which for
        FLASH is already true; the sharper check: the suggested
        *session* fixes name exactly the files the conflicts live in."""
        report_paths = set()
        run = variant_by_label["FLASH-HDF5 fbs"]
        import repro
        report = repro.analyze(run.run(nranks=8))
        cs = report.conflicts(Semantics.SESSION)
        report_paths = {c.path for c in cs}
        fix_paths = {f.path for f in suggest_fixes(cs, cs.semantics)}
        assert fix_paths == report_paths

    def test_nwchem_advice_application_side(self, study8):
        report = study8.find("NWChem-POSIX").report
        fixes = suggest_fixes(report.conflicts(Semantics.SESSION),
                              Semantics.SESSION)
        assert fixes
        assert all(not f.library_side for f in fixes)
