"""Tests for the miniature MPI-IO layer (two-phase collective I/O)."""

from types import SimpleNamespace

import pytest

from repro.errors import MPIError
from repro.mpiio.file import MPIFile, MPIIOHints
from repro.tracer.events import Layer


def open_shared(ctx, path="/shared.bin", cb_nodes=2, cb_buffer=64,
                recorder=None):
    return MPIFile(ctx.comm, ctx.posix, path,
                   MPIFile.MODE_RDWR | MPIFile.MODE_CREATE,
                   recorder=recorder,
                   hints=MPIIOHints(cb_nodes=cb_nodes,
                                    cb_buffer_size=cb_buffer))


class TestHints:
    def test_auto_cb_nodes(self):
        assert MPIIOHints().resolved_cb_nodes(64) == 8
        assert MPIIOHints().resolved_cb_nodes(4) == 1
        assert MPIIOHints(cb_nodes=6).resolved_cb_nodes(4) == 4

    @pytest.mark.parametrize("nranks", [*range(1, 41), 64, 100, 255, 1024])
    def test_aggregator_index_is_the_position_in_aggregator_ranks(
            self, nranks):
        """The O(1) index a collective write checks agrees with the
        aggregator list, for every rank and aggregator count."""
        for cb_nodes in {0, 1, 2, 3, 7, nranks // 3, nranks - 1, nranks}:
            handle = SimpleNamespace(hints=MPIIOHints(cb_nodes=cb_nodes),
                                     nranks=nranks)
            aggs = MPIFile.aggregator_ranks.fget(handle)
            for rank in range(nranks):
                handle.rank = rank
                expected = aggs.index(rank) if rank in aggs else None
                assert MPIFile._aggregator_index(handle) == (
                    expected, len(aggs))


class TestIndependent:
    def test_write_at_read_at(self, harness):
        h = harness(nranks=4)

        def program(ctx):
            f = open_shared(ctx)
            f.write_at(ctx.rank * 4, bytes([65 + ctx.rank]) * 4)
            ctx.comm.barrier()
            data = f.read_at(0, 16)
            f.close()
            return data

        results = h.run(program, align=False)
        assert results[0] == b"AAAABBBBCCCCDDDD"
        assert len(set(results)) == 1

    def test_shared_pointer_write(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            f = open_shared(ctx, path=f"/own{ctx.rank}.bin")
            f.write(b"ab")
            f.write(b"cd")
            f.seek(0)
            out = f.read(4)
            f.close()
            return out

        assert h.run(program, align=False) == [b"abcd", b"abcd"]

    def test_closed_file_rejected(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            f = open_shared(ctx)
            f.close()
            with pytest.raises(MPIError):
                f.write_at(0, b"x")

        h.run(program, align=False)


class TestCollective:
    def test_write_at_all_content(self, harness):
        h = harness(nranks=4)

        def program(ctx):
            f = open_shared(ctx, cb_nodes=2, cb_buffer=8)
            f.write_at_all(ctx.rank * 8, bytes([48 + ctx.rank]) * 8)
            f.close()

        h.run(program, align=False)
        assert h.vfs.read_file("/shared.bin") == (
            b"0" * 8 + b"1" * 8 + b"2" * 8 + b"3" * 8)

    def test_only_aggregators_touch_posix(self, harness):
        h = harness(nranks=8)

        def program(ctx):
            f = open_shared(ctx, cb_nodes=2, cb_buffer=64,
                            recorder=ctx.recorder)
            f.write_at_all(ctx.rank * 16, 16)
            f.close()
            return f.aggregator_ranks

        results = h.run(program, align=False)
        aggs = set(results[0])
        assert len(aggs) == 2
        trace = h.trace()
        writers = {r.rank for r in trace.posix_records
                   if r.func == "pwrite"}
        assert writers == aggs

    def test_round_interleaved_domains(self, harness):
        """With several rounds, each aggregator writes strided stripes."""
        h = harness(nranks=4)

        def program(ctx):
            f = open_shared(ctx, cb_nodes=2, cb_buffer=4,
                            recorder=ctx.recorder)
            f.write_at_all(ctx.rank * 8, 8)  # span 32 = 4 rounds of 2x4
            f.close()

        h.run(program, align=False)
        trace = h.trace()
        # aggregator 0 writes stripes 0,2,4,6 -> offsets 0,8,16,24
        offs = sorted(r.offset for r in trace.posix_records
                      if r.func == "pwrite" and r.rank == 0)
        assert offs == [0, 8, 16, 24]

    def test_empty_contribution(self, harness):
        h = harness(nranks=3)

        def program(ctx):
            f = open_shared(ctx)
            f.write_at_all(0 if ctx.rank else 0,
                           b"full" if ctx.rank == 0 else b"")
            f.close()

        h.run(program, align=False)
        assert h.vfs.read_file("/shared.bin") == b"full"

    def test_vector_write(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            f = open_shared(ctx, cb_nodes=1)
            extents = [(ctx.rank * 2, bytes([97 + ctx.rank]) * 2),
                       (4 + ctx.rank * 2, bytes([97 + ctx.rank]) * 2)]
            f.write_at_all_vector(extents)
            f.close()

        h.run(program, align=False)
        assert h.vfs.read_file("/shared.bin") == b"aabbaabb"

    def test_read_at_all(self, harness):
        h = harness(nranks=4)

        def program(ctx):
            f = open_shared(ctx)
            f.write_at_all(ctx.rank * 4, bytes([65 + ctx.rank]) * 4)
            f.sync()
            data = f.read_at_all(ctx.rank * 4, 4)
            f.close()
            return data

        results = h.run(program, align=False)
        assert results == [b"AAAA", b"BBBB", b"CCCC", b"DDDD"]

    def test_layer_attribution(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            f = open_shared(ctx, recorder=ctx.recorder)
            f.write_at(ctx.rank * 4, 4)
            f.close()

        h.run(program, align=False)
        trace = h.trace()
        posix = [r for r in trace.posix_records if r.func == "pwrite"]
        assert all(r.issuer == Layer.MPIIO for r in posix)
        mpiio = trace.layer_records(Layer.MPIIO)
        assert {r.func for r in mpiio} >= {"MPI_File_open",
                                           "MPI_File_write_at",
                                           "MPI_File_close"}
        assert all(r.issuer == Layer.APP for r in mpiio)
