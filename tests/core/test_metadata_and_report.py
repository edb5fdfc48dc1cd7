"""Tests for metadata-usage analysis (Fig. 3) and the run report."""

from repro.core.metadata import (
    LayerGroup,
    group_of,
    metadata_usage,
    unused_operations,
)
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.posix import flags as F
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder


class TestLayerGrouping:
    def test_buckets(self):
        assert group_of(Layer.MPIIO) is LayerGroup.MPI
        assert group_of(Layer.MPI) is LayerGroup.MPI
        assert group_of(Layer.HDF5) is LayerGroup.HDF5
        for layer in (Layer.APP, Layer.NETCDF, Layer.ADIOS, Layer.SILO):
            assert group_of(layer) is LayerGroup.APPLICATION


class TestMetadataUsage:
    def make_trace(self):
        rec = Recorder(1)
        rec.record(0, Layer.POSIX, "stat", 0.0, 0.1, path="/f")
        with rec.in_layer(0, Layer.HDF5):
            rec.record(0, Layer.POSIX, "lstat", 0.2, 0.3, path="/f")
            rec.record(0, Layer.POSIX, "ftruncate", 0.4, 0.5, path="/f",
                       args={"length": 10})
            with rec.in_layer(0, Layer.MPIIO):
                rec.record(0, Layer.POSIX, "stat", 0.6, 0.7, path="/f")
        rec.record(0, Layer.POSIX, "write", 0.8, 0.9, path="/f", count=4)
        return rec.build_trace()

    def test_ops_and_groups(self):
        usage = metadata_usage(self.make_trace())
        assert usage.used_by("stat") == {LayerGroup.APPLICATION,
                                         LayerGroup.MPI}
        assert usage.used_by("lstat") == {LayerGroup.HDF5}
        assert usage.used_by("ftruncate") == {LayerGroup.HDF5}
        assert "write" not in usage.ops  # data ops excluded

    def test_counts(self):
        usage = metadata_usage(self.make_trace())
        assert usage.count("stat") == 2
        assert usage.count("stat", LayerGroup.MPI) == 1
        assert usage.count("rename") == 0

    def test_unused_inventory(self):
        usage = metadata_usage(self.make_trace())
        unused = unused_operations(usage)
        assert "rename" in unused and "chown" in unused
        assert "stat" not in unused


class TestRunReport:
    def build_report(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            px = ctx.posix
            fd = px.open(f"/out/f{ctx.rank}" if ctx.rank else "/out/f0",
                         F.O_RDWR | F.O_CREAT)
            px.write(fd, 100)
            px.pwrite(fd, 10, 0)  # WAW-S, no commit between
            px.close(fd)

        h.vfs.makedirs("/out")
        h.run(program)
        return analyze(h.trace(application="Demo", io_library="POSIX"))

    def test_memoization(self, harness):
        report = self.build_report(harness)
        assert report.conflicts(Semantics.SESSION) is \
            report.conflicts(Semantics.SESSION)
        assert report.accesses is report.accesses

    def test_verdict_and_compatibility(self, harness):
        report = self.build_report(harness)
        assert report.conflicts(Semantics.SESSION).flags["WAW-S"]
        assert report.weakest_sufficient_semantics() is Semantics.EVENTUAL
        names = {f.name for f in report.compatible_filesystems()}
        assert "BurstFS" not in names
        assert "UnifyFS" in names

    def test_text_rendering(self, harness):
        report = self.build_report(harness)
        text = report.to_text()
        assert "Demo-POSIX" in text
        assert "Function counters" in text
        assert "WAW-S" in text
        assert "Compatible file systems" in text

    def test_name_fallback(self, harness):
        h = harness(nranks=1)
        h.run(lambda ctx: None)
        report = analyze(h.trace())
        assert report.name == "run"
