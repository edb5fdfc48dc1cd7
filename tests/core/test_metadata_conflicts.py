"""Tests for the metadata-conflict analyzer (paper §7 future work)."""

from repro.core.metadata_conflicts import (
    MetadataConflictKind,
    detect_metadata_conflicts,
)
from repro.posix import flags as F
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder


class Builder:
    def __init__(self, nranks=4):
        self.rec = Recorder(nranks)
        self.t = 0.0

    def _next(self):
        self.t += 1.0
        return self.t

    def op(self, rank, func, path, **kw):
        t = self._next()
        self.rec.record(rank, Layer.POSIX, func, t, t + 0.1, path=path,
                        **kw)
        return self

    def creating_open(self, rank, path):
        return self.op(rank, "open", path, fd=3,
                       args={"flags": F.O_WRONLY | F.O_CREAT,
                             "existed": False})

    def plain_open(self, rank, path):
        return self.op(rank, "open", path, fd=3,
                       args={"flags": F.O_RDONLY, "existed": True})

    def detect(self):
        return detect_metadata_conflicts(self.rec.build_trace())


class TestFileCreateUse:
    def test_cross_rank_open_after_create(self):
        mc = (Builder()
              .creating_open(0, "/d/f")
              .plain_open(1, "/d/f")
              .detect())
        assert len(mc) == 1
        c = mc.conflicts[0]
        assert c.kind is MetadataConflictKind.FILE_CREATE_USE
        assert c.cross_process and c.scope == "D"
        assert c.label == "file-create/use-D"

    def test_stat_after_create(self):
        mc = (Builder()
              .creating_open(0, "/f")
              .op(1, "stat", "/f")
              .detect())
        assert len(mc) == 1

    def test_same_rank_scope_s(self):
        mc = (Builder()
              .creating_open(0, "/f")
              .plain_open(0, "/f")
              .detect())
        assert len(mc) == 1
        assert not mc.conflicts[0].cross_process
        assert not mc.cross_process

    def test_reopen_with_existing_file_not_a_producer(self):
        """O_CREAT on an existing file creates nothing."""
        mc = (Builder()
              .op(0, "open", "/f", fd=3,
                  args={"flags": F.O_WRONLY | F.O_CREAT, "existed": True})
              .plain_open(1, "/f")
              .detect())
        assert len(mc) == 0

    def test_consumer_without_producer_ignored(self):
        mc = Builder().plain_open(1, "/pre-existing").detect()
        assert len(mc) == 0

    def test_unlink_consumes_then_clears(self):
        b = (Builder()
             .creating_open(0, "/f")
             .op(1, "unlink", "/f"))
        mc = b.detect()
        assert len(mc) == 1  # the unlink itself consumed the entry
        mc2 = b.plain_open(2, "/f").detect()
        assert len(mc2) == 1  # the open after unlink has no producer


class TestDirCreateUse:
    def test_create_inside_foreign_dir(self):
        mc = (Builder()
              .op(0, "mkdir", "/out")
              .creating_open(1, "/out/f")
              .detect())
        assert len(mc) == 1
        assert mc.conflicts[0].kind is MetadataConflictKind.DIR_CREATE_USE
        assert mc.conflicts[0].path == "/out"

    def test_readdir_consumes_dir(self):
        mc = (Builder()
              .op(0, "mkdir", "/out")
              .op(1, "readdir", "/out")
              .detect())
        assert len(mc) == 1


class TestRenameUse:
    def test_open_after_rename(self):
        mc = (Builder()
              .creating_open(0, "/tmp.part")
              .op(0, "rename", "/tmp.part", args={"to": "/final"})
              .plain_open(1, "/final")
              .detect())
        kinds = {c.kind for c in mc}
        assert MetadataConflictKind.RENAME_USE in kinds

    def test_rename_clears_source(self):
        mc = (Builder()
              .creating_open(0, "/a")
              .op(0, "rename", "/a", args={"to": "/b"})
              .plain_open(1, "/a")
              .detect())
        # /a's producer was cleared by the rename
        assert all(c.path != "/a" for c in mc)


class TestOnRealApps:
    def test_shared_output_apps_have_dir_create_use(self, study8):
        """Every app whose ranks create files in a rank-0-made directory
        shows cross-process dir-create/use dependencies."""
        for label in ("FLASH-HDF5 fbs", "pF3D-IO-POSIX", "ENZO-HDF5"):
            mc = study8.find(label).report.metadata_conflicts
            assert any(c.kind is MetadataConflictKind.DIR_CREATE_USE
                       and c.cross_process for c in mc), label

    def test_rank0_only_apps_have_no_cross_process(self, study8):
        mc = study8.find("GTC-POSIX").report.metadata_conflicts
        assert not mc.cross_process

    def test_by_path_grouping(self, study8):
        mc = study8.find("FLASH-HDF5 fbs").report.metadata_conflicts
        grouped = mc.by_path()
        assert sum(len(v) for v in grouped.values()) == len(mc)
