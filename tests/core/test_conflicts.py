"""Tests for conflict detection under commit/session semantics (§5.2).

These construct traces by hand so every condition of the paper's
definition is exercised in isolation:

1. overlap, 2. first-is-write, 3. commit window, 4. close/open session
pair.
"""

from repro.core.conflicts import ConflictKind, ConflictScope, VisibilityIndex
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder
from tests.core import reference


class TraceBuilder:
    """Tiny DSL for hand-crafted POSIX traces."""

    def __init__(self, nranks=4):
        self.rec = Recorder(nranks)
        self.t = 0.0
        self.nranks = nranks

    def _next(self):
        self.t += 1.0
        return self.t

    def open(self, rank, path, fd=3, flags=0o102):  # O_RDWR|O_CREAT
        t = self._next()
        self.rec.record(rank, Layer.POSIX, "open", t, t + 0.1, path=path,
                        fd=fd, args={"flags": flags})
        return self

    def write(self, rank, path, off, n, fd=3):
        t = self._next()
        self.rec.record(rank, Layer.POSIX, "pwrite", t, t + 0.1,
                        path=path, fd=fd, offset=off, count=n)
        return self

    def read(self, rank, path, off, n, fd=3):
        t = self._next()
        self.rec.record(rank, Layer.POSIX, "pread", t, t + 0.1,
                        path=path, fd=fd, offset=off, count=n)
        return self

    def fsync(self, rank, path, fd=3):
        t = self._next()
        self.rec.record(rank, Layer.POSIX, "fsync", t, t + 0.1,
                        path=path, fd=fd)
        return self

    def close(self, rank, path, fd=3):
        t = self._next()
        self.rec.record(rank, Layer.POSIX, "close", t, t + 0.1,
                        path=path, fd=fd)
        return self

    def conflicts(self, semantics):
        return analyze(self.rec.build_trace()).conflicts(semantics)


class TestPotentialConflictShape:
    def test_waw_d_detected(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .write(1, "/f", 5, 10)
              .conflicts(Semantics.SESSION))
        assert len(cs) == 1
        c = next(iter(cs))
        assert c.kind is ConflictKind.WAW
        assert c.scope is ConflictScope.DIFFERENT
        assert c.first.rank == 0 and c.second.rank == 1
        assert c.label == "WAW-D"

    def test_raw_s_detected(self):
        cs = (TraceBuilder()
              .open(0, "/f")
              .write(0, "/f", 0, 10)
              .read(0, "/f", 0, 4)
              .conflicts(Semantics.SESSION))
        assert cs.flags == {"WAW-S": False, "WAW-D": False,
                            "RAW-S": True, "RAW-D": False}

    def test_war_never_conflicts(self):
        """A write-after-read pair cannot conflict (paper §4.1)."""
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 20)   # make bytes exist
              .fsync(0, "/f")
              .read(1, "/f", 0, 10)
              .write(1, "/f", 0, 10)   # same rank: program order
              .conflicts(Semantics.COMMIT))
        # the only surviving pair kinds involve write-first
        assert all(c.first.is_write for c in cs)

    def test_no_overlap_no_conflict(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .write(1, "/f", 10, 10)
              .conflicts(Semantics.SESSION))
        assert not cs

    def test_different_files_no_conflict(self):
        cs = (TraceBuilder()
              .open(0, "/a").open(1, "/b")
              .write(0, "/a", 0, 10)
              .write(1, "/b", 0, 10)
              .conflicts(Semantics.SESSION))
        assert not cs


class TestCommitCondition:
    def test_commit_by_writer_clears(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .fsync(0, "/f")
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.COMMIT))
        assert not cs

    def test_commit_by_other_rank_does_not_clear(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .fsync(1, "/f")          # wrong process commits
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.COMMIT))
        assert len(cs) == 1

    def test_commit_on_other_file_does_not_clear(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(0, "/g", fd=4).open(1, "/f")
              .write(0, "/f", 0, 10)
              .fsync(0, "/g", fd=4)    # commit on the wrong file
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.COMMIT))
        assert len(cs) == 1

    def test_close_acts_as_commit(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .close(0, "/f")
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.COMMIT))
        assert not cs

    def test_commit_after_second_access_too_late(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .read(1, "/f", 0, 10)
              .fsync(0, "/f")
              .conflicts(Semantics.COMMIT))
        assert len(cs) == 1


class TestSessionCondition:
    def test_close_then_open_clears(self):
        cs = (TraceBuilder()
              .open(0, "/f")
              .write(0, "/f", 0, 10)
              .close(0, "/f")
              .open(1, "/f")
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.SESSION))
        assert not cs

    def test_open_before_close_does_not_clear(self):
        """Reader's open precedes the writer's close: stale session."""
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .close(0, "/f")
              .read(1, "/f", 0, 10)    # reader never reopened
              .conflicts(Semantics.SESSION))
        assert len(cs) == 1

    def test_fsync_alone_does_not_clear_session(self):
        """This is exactly why FLASH conflicts under session but not
        commit: H5Fflush fsyncs but nobody closes/reopens."""
        builder = (TraceBuilder()
                   .open(0, "/f").open(1, "/f")
                   .write(0, "/f", 0, 10)
                   .fsync(0, "/f")
                   .write(1, "/f", 0, 10))
        assert len(builder.conflicts(Semantics.SESSION)) == 1
        assert not builder.conflicts(Semantics.COMMIT)

    def test_same_process_session_pair(self):
        """Close+reopen by the same process also clears its own pair."""
        cs = (TraceBuilder()
              .open(0, "/f")
              .write(0, "/f", 0, 10)
              .close(0, "/f")
              .open(0, "/f")
              .read(0, "/f", 0, 10)
              .conflicts(Semantics.SESSION))
        assert not cs


class TestOtherModels:
    def test_strong_never_conflicts(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .write(1, "/f", 0, 10)
              .conflicts(Semantics.STRONG))
        assert not cs

    def test_eventual_ignores_commits(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .fsync(0, "/f")
              .close(0, "/f")
              .open(1, "/f")
              .read(1, "/f", 0, 10)
              .conflicts(Semantics.EVENTUAL))
        assert len(cs) == 1

    def test_commit_subset_of_session(self):
        """Theorem: commit conflicts are a subset of session conflicts."""
        builder = (TraceBuilder()
                   .open(0, "/f").open(1, "/f")
                   .write(0, "/f", 0, 10)
                   .close(0, "/f")
                   .open(1, "/f")      # note: second open by rank 1
                   .write(1, "/f", 0, 10)
                   .write(0, "/f", 20, 5)
                   .read(0, "/f", 20, 5))
        session = {(c.first.rid, c.second.rid)
                   for c in builder.conflicts(Semantics.SESSION)}
        commit = {(c.first.rid, c.second.rid)
                  for c in builder.conflicts(Semantics.COMMIT)}
        assert commit <= session


class TestConflictSet:
    def test_by_path_and_paths(self):
        cs = (TraceBuilder()
              .open(0, "/a").open(1, "/a").open(0, "/b", fd=4)
              .write(0, "/a", 0, 10)
              .write(1, "/a", 0, 10)
              .write(0, "/b", 0, 10, fd=4)
              .read(0, "/b", 0, 10, fd=4)
              .conflicts(Semantics.SESSION))
        assert set(cs.paths) == {"/a", "/b"}
        assert len(cs.by_path()["/a"]) == 1

    def test_cross_process_only(self):
        cs = (TraceBuilder()
              .open(0, "/f").open(1, "/f")
              .write(0, "/f", 0, 10)
              .read(0, "/f", 0, 10)
              .write(1, "/f", 0, 10)
              .conflicts(Semantics.SESSION))
        cross = cs.cross_process_only
        assert len(cs) > len(cross)
        assert all(c.scope is ConflictScope.DIFFERENT for c in cross)


class TestVisibilityIndex:
    def test_binary_search_windows(self):
        b = (TraceBuilder()
             .open(0, "/f")          # t=1
             .write(0, "/f", 0, 4)   # t=2
             .fsync(0, "/f")         # t=3
             .close(0, "/f")         # t=4
             .open(1, "/f"))         # t=5
        vis = VisibilityIndex(b.rec.build_trace())
        assert vis.times("commit", 0, "/f").tolist() == [3.0, 4.0]
        assert vis.times("close", 1, "/f").size == 0
        assert reference.commit_between(vis, 0, "/f", 2.0, 4.0)
        assert not reference.commit_between(vis, 0, "/f", 3.0, 3.5)
        assert reference.first_close_after(vis, 0, "/f", 2.0) == 4.0
        assert reference.first_close_after(vis, 0, "/f", 4.5) == \
            float("inf")
        assert reference.open_between(vis, 1, "/f", 4.0, 6.0)
        # strict bound
        assert not reference.open_between(vis, 1, "/f", 5.0, 6.0)
        assert reference.session_pair_between(vis, 0, 1, "/f", 2.0, 6.0)
        assert not reference.session_pair_between(vis, 0, 1, "/f",
                                                  2.0, 5.0)
