"""Tests for chunked HDF5 datasets (extensible layout)."""

import pytest

from repro.core.patterns import AccessPattern, classify_files, data_mask
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.errors import AnalysisError
from repro.iolibs.hdf5lite import H5File


class TestChunkedLayout:
    def test_chunks_append_at_eoa(self, harness):
        h = harness(nranks=1)

        def program(ctx):
            f = H5File(ctx.posix, "/c.h5", "w")
            ds = f.create_chunked_dataset("t", 256)
            offs = [f.append_chunk(ds) for _ in range(3)]
            f.close()
            return offs

        offs = h.run(program, align=False)[0]
        assert offs == [4096, 4096 + 256, 4096 + 512]

    def test_two_datasets_interleave(self, harness):
        """Alternating appends interleave the datasets' chunks — the
        §6.2.1 mechanism behind HDF5-induced random accesses."""
        h = harness(nranks=1)

        def program(ctx):
            f = H5File(ctx.posix, "/c.h5", "w")
            a = f.create_chunked_dataset("a", 128)
            b = f.create_chunked_dataset("b", 128)
            for _ in range(4):
                f.append_chunk(a)
                f.append_chunk(b)
            f.close()
            return (a.chunks, b.chunks)

        a_chunks, b_chunks = h.run(program, align=False)[0]
        merged = sorted(a_chunks + b_chunks)
        assert merged == [4096 + i * 128 for i in range(8)]
        # neither dataset is contiguous
        assert any(y - x != 128 for x, y in zip(a_chunks, a_chunks[1:]))

    def test_chunk_read_roundtrip(self, harness):
        h = harness(nranks=1)

        def program(ctx):
            f = H5File(ctx.posix, "/c.h5", "w")
            ds = f.create_chunked_dataset("t", 64)
            f.append_chunk(ds, b"A" * 64)
            f.append_chunk(ds, b"B" * 64)
            first = f.read_chunk(ds, 0)
            second = f.read_chunk(ds, 1)
            f.close()
            return first, second

        first, second = h.run(program, align=False)[0]
        assert first == b"A" * 64 and second == b"B" * 64

    def test_oversized_chunk_rejected(self, harness):
        h = harness(nranks=1)

        def program(ctx):
            f = H5File(ctx.posix, "/c.h5", "w")
            ds = f.create_chunked_dataset("t", 16)
            with pytest.raises(AnalysisError):
                f.append_chunk(ds, b"x" * 17)
            with pytest.raises(AnalysisError):
                f.read_chunk(ds, 0)
            f.close()

        h.run(program, align=False)

    def test_duplicate_name_rejected(self, harness):
        h = harness(nranks=1)

        def program(ctx):
            f = H5File(ctx.posix, "/c.h5", "w")
            f.create_chunked_dataset("t", 16)
            with pytest.raises(AnalysisError):
                f.create_chunked_dataset("t", 16)
            f.close()

        h.run(program, align=False)


class TestChunkedConsequences:
    def run_chunked_writer(self, harness):
        h = harness(nranks=1)

        def program(ctx):
            ctx.comm.barrier()
            ctx.recorder.set_time_origin(ctx.rank,
                                         ctx.clock.local_time)
            f = H5File(ctx.posix, "/out/c.h5", "w",
                       recorder=ctx.recorder)
            a = f.create_chunked_dataset("a", 512)
            b = f.create_chunked_dataset("b", 512)
            for _ in range(6):
                f.append_chunk(a)
                f.append_chunk(b)
            f.close()

        h.vfs.makedirs("/out")
        h.run(program, align=False)
        return h.trace(application="chunked", io_library="HDF5")

    def test_index_rewrites_are_waw_s(self, harness):
        """Every append rewrites the B-tree node: WAW-S with no commit,
        persisting under both session and commit semantics."""
        report = analyze(self.run_chunked_writer(harness))
        for semantics in (Semantics.SESSION, Semantics.COMMIT):
            flags = report.conflicts(semantics).flags
            assert flags["WAW-S"], semantics
            assert not flags["WAW-D"]

    def test_per_dataset_sequence_not_consecutive(self, harness):
        """Each dataset's own chunks are strided by the interleave."""
        report = analyze(self.run_chunked_writer(harness))
        table = report.tables["/out/c.h5"]
        label = classify_files([table], [data_mask(table)])
        assert label is not AccessPattern.CONSECUTIVE
