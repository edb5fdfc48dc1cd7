"""Tests for trace records, the recorder, and the trace container."""

import pytest

from repro.errors import TraceError
from repro.posix import flags as F
from repro.tracer.events import (
    COMMIT_OPS,
    DATA_OPS,
    METADATA_OPS,
    Layer,
    OpClass,
    classify_posix_op,
)
from repro.tracer.recorder import Recorder
from repro.tracer.trace import Trace


class TestOpCatalog:
    def test_classification(self):
        assert classify_posix_op("read") is OpClass.READ
        assert classify_posix_op("pwrite") is OpClass.WRITE
        assert classify_posix_op("open") is OpClass.OPEN
        assert classify_posix_op("close") is OpClass.CLOSE
        assert classify_posix_op("lseek") is OpClass.SEEK
        assert classify_posix_op("fsync") is OpClass.COMMIT
        assert classify_posix_op("stat") is OpClass.METADATA
        assert classify_posix_op("exotic_op") is OpClass.OTHER

    def test_commit_ops_include_closes(self):
        """Footnote 2: fsync, fdatasync, fflush, close, fclose."""
        assert COMMIT_OPS == {"fsync", "fdatasync", "fflush", "close",
                              "fclose"}

    def test_paper_metadata_inventory_present(self):
        for op in ("mmap", "stat", "getcwd", "rename", "ftruncate",
                   "umask", "readlinkat", "tmpfile"):
            assert op in METADATA_OPS

    def test_data_ops_disjoint_from_metadata(self):
        assert not DATA_OPS & METADATA_OPS


class TestRecorder:
    def test_issuer_attribution_stack(self):
        rec = Recorder(1)
        with rec.in_layer(0, Layer.HDF5):
            assert rec.issuer(0) is Layer.HDF5
            with rec.in_layer(0, Layer.MPIIO):
                rec.record(0, Layer.POSIX, "pwrite", 0.0, 1.0)
        assert rec.issuer(0) is Layer.APP
        assert rec.build_trace().records[0].issuer is Layer.MPIIO

    def test_alignment_shifts_timestamps(self):
        rec = Recorder(2)
        rec.record(0, Layer.POSIX, "open", 10.0, 10.5)
        rec.record(1, Layer.POSIX, "open", 20.0, 20.5)
        rec.set_time_origin(0, 10.0)
        rec.set_time_origin(1, 20.0)
        rec.set_time_origin(1, 99.0)  # only the first origin sticks
        trace = rec.build_trace()
        assert [r.tstart for r in trace.records] == [0.0, 0.0]

    def test_record_ids_unique_and_global(self):
        rec = Recorder(2)
        rec.record(0, Layer.POSIX, "open", 0, 1)
        rec.record(1, Layer.POSIX, "open", 0, 1)
        a, b = rec.build_trace().records
        assert a.rid != b.rid


def make_trace():
    rec = Recorder(2)
    rec.record(0, Layer.POSIX, "open", 0.0, 0.1, path="/f", fd=3,
               args={"flags": F.O_WRONLY | F.O_CREAT})
    rec.record(0, Layer.POSIX, "write", 0.2, 0.3, path="/f", fd=3,
               count=10, gt_offset=0)
    rec.record(1, Layer.POSIX, "pread", 0.25, 0.35, path="/f", fd=3,
               offset=0, count=10)
    rec.record(0, Layer.HDF5, "H5Dwrite", 0.15, 0.4, path="/f", count=10)
    rec.record(0, Layer.POSIX, "close", 0.5, 0.6, path="/f", fd=3)
    rec.record(0, Layer.POSIX, "stat", 0.7, 0.8, path="/f")
    return rec.build_trace(meta={"application": "T", "io_library": "X"})


class TestTrace:
    def test_sorted_by_time(self):
        trace = make_trace()
        times = [r.tstart for r in trace.records]
        assert times == sorted(times)

    def test_filters(self):
        trace = make_trace()
        assert len(trace.posix_records) == 5
        assert len(trace.posix_data_records) == 2
        assert len(trace.layer_records(Layer.HDF5)) == 1
        assert trace.data_paths == ["/f"]

    def test_stats(self):
        trace = make_trace()
        rd, wr = trace.bytes_moved()
        assert (rd, wr) == (10, 10)
        counts = trace.function_counts(Layer.POSIX)
        assert counts["write"] == 1 and counts["stat"] == 1

    def test_validate_catches_bad_rank(self):
        records = list(make_trace().records)
        records[0].rank = 9
        trace = Trace(nranks=2, records=records)
        with pytest.raises(TraceError):
            trace.validate()

    def test_validate_catches_missing_count(self):
        records = list(make_trace().records)
        bad = next(r for r in records if r.func == "write")
        bad.count = None
        trace = Trace(nranks=2, records=records)
        with pytest.raises(TraceError):
            trace.validate()

    def test_jsonl_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert loaded.nranks == trace.nranks
        assert loaded.meta == trace.meta
        assert len(loaded.records) == len(trace.records)
        for a, b in zip(loaded.records, trace.records):
            assert (a.func, a.rank, a.layer, a.tstart) == \
                   (b.func, b.rank, b.layer, b.tstart)

    def test_jsonl_roundtrip_with_mpi_events(self, tmp_path, harness):
        h = harness(nranks=2)

        def program(ctx):
            ctx.comm.barrier()
            if ctx.rank == 0:
                ctx.comm.send(1, 1)
            else:
                ctx.comm.recv(0)

        h.run(program, align=False)
        trace = h.trace()
        path = tmp_path / "t.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert len(loaded.mpi_events) == len(trace.mpi_events)
        assert loaded.mpi_events[0].match_key == \
            trace.mpi_events[0].match_key
