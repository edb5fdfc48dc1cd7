"""Tests for offset reconstruction (§5.1) against simulator ground truth."""

import pytest

from repro.core.offsets import reconstruct_offsets
from repro.errors import TraceError
from repro.posix import flags as F
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder


def reconstruct_and_check(trace):
    """Reconstruct offsets and compare against gt_offset ground truth."""
    accs = reconstruct_offsets(trace)
    gt = {r.rid: r.gt_offset for r in trace.posix_data_records
          if r.gt_offset is not None}
    assert accs, "no data accesses resolved"
    for a in accs:
        if a.rid in gt:
            assert a.offset == gt[a.rid], \
                f"rid {a.rid} ({a.func}): got {a.offset}, true {gt[a.rid]}"
    return accs


class TestBasicTracking:
    def test_sequential_writes(self, run_traced):
        def program(ctx):
            fd = ctx.posix.open(f"/f{ctx.rank}",
                                F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
            for _ in range(4):
                ctx.posix.write(fd, 100)
            ctx.posix.close(fd)

        trace, _ = run_traced(program, nranks=2)
        accs = reconstruct_and_check(trace)
        mine = [a for a in accs if a.rank == 0]
        assert [a.offset for a in mine] == [0, 100, 200, 300]

    def test_reads_advance_offset(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/f", F.O_RDWR | F.O_CREAT | F.O_TRUNC)
            px.write(fd, 50)
            px.lseek(fd, 0, F.SEEK_SET)
            px.read(fd, 20)
            px.read(fd, 20)  # continues at 20
            px.close(fd)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_and_check(trace)
        reads = [a for a in accs if not a.is_write]
        assert [a.offset for a in reads] == [0, 20]

    def test_seek_whences(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/f", F.O_RDWR | F.O_CREAT | F.O_TRUNC)
            px.write(fd, 100)
            px.lseek(fd, 10, F.SEEK_SET)
            px.write(fd, 5)
            px.lseek(fd, 5, F.SEEK_CUR)
            px.write(fd, 5)
            px.lseek(fd, -8, F.SEEK_END)
            px.write(fd, 4)
            px.close(fd)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_and_check(trace)
        assert [a.offset for a in accs if a.is_write] == [0, 10, 20, 92]

    def test_append_mode_tracks_eof(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/f", F.O_WRONLY | F.O_CREAT | F.O_APPEND)
            px.write(fd, 10)
            px.lseek(fd, 0, F.SEEK_SET)
            px.write(fd, 10)  # appends regardless of the seek
            px.close(fd)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_and_check(trace)
        assert [a.offset for a in accs] == [0, 10]

    def test_o_trunc_resets_size(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/f", F.O_WRONLY | F.O_CREAT)
            px.write(fd, 100)
            px.close(fd)
            fd = px.open("/f", F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
            px.lseek(fd, 0, F.SEEK_END)  # EOF is 0 after trunc
            px.write(fd, 10)
            px.close(fd)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_and_check(trace)
        assert accs[-1].offset == 0

    def test_ftruncate_updates_size(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/f", F.O_RDWR | F.O_CREAT | F.O_TRUNC)
            px.write(fd, 100)
            px.ftruncate(fd, 40)
            px.lseek(fd, 0, F.SEEK_END)
            px.write(fd, 10)
            px.close(fd)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_and_check(trace)
        assert accs[-1].offset == 40

    def test_dup_shares_offset_state(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/f", F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
            fd2 = px.dup(fd)
            px.write(fd, 10)
            px.write(fd2, 10)
            px.close(fd)
            px.close(fd2)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_and_check(trace)
        assert [a.offset for a in accs] == [0, 10]

    def test_stdio_wrappers_tracked(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.fopen("/f", "w")
            px.fwrite(fd, 30)
            px.fseek(fd, 10, F.SEEK_SET)
            px.fwrite(fd, 5)
            px.fclose(fd)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_and_check(trace)
        assert [a.offset for a in accs] == [0, 10]


class TestSharedFiles:
    def test_shared_append_eof_across_ranks(self, run_traced):
        """SEEK_END on a shared file must see other ranks' growth."""
        def program(ctx):
            px = ctx.posix
            if ctx.rank > 0:
                ctx.comm.recv(ctx.rank - 1)
            fd = px.open("/shared", F.O_WRONLY | F.O_CREAT)
            px.lseek(fd, 0, F.SEEK_END)
            px.write(fd, 100)
            px.close(fd)
            if ctx.rank + 1 < ctx.nranks:
                ctx.comm.send(ctx.rank + 1, 1)

        trace, _ = run_traced(program, nranks=4)
        accs = reconstruct_and_check(trace)
        assert sorted(a.offset for a in accs) == [0, 100, 200, 300]

    def test_size_at_open_seeds_pre_existing_files(self, harness):
        """Files created before tracing still resolve SEEK_END."""
        h = harness(nranks=1)
        # the file exists on the (untraced) file system before the run
        inode = h.vfs.open_inode("/old", F.O_WRONLY | F.O_CREAT, 0.0)
        h.vfs.write_at(inode, 0, b"x" * 77, 0.0)
        h.vfs.release_inode(inode)

        def program(ctx):
            px = ctx.posix
            fd = px.open("/old", F.O_WRONLY)
            px.lseek(fd, 0, F.SEEK_END)
            px.write(fd, 10)
            px.close(fd)

        h.run(program, align=False)
        accs = reconstruct_and_check(h.trace())
        assert accs[0].offset == 77


class TestRobustness:
    def test_strict_untracked_fd_raises(self):
        rec = Recorder(1)
        rec.record(0, Layer.POSIX, "write", 0.0, 0.1, path="/f", fd=9,
                   count=4)
        with pytest.raises(TraceError):
            reconstruct_offsets(rec.build_trace())

    def test_lenient_untracked_fd_skips(self):
        rec = Recorder(1)
        rec.record(0, Layer.POSIX, "write", 0.0, 0.1, path="/f", fd=9,
                   count=4)
        assert reconstruct_offsets(rec.build_trace(),
                                   strict=False) == []

    def test_zero_length_accesses_dropped(self, run_traced):
        def program(ctx):
            px = ctx.posix
            fd = px.open("/f", F.O_RDWR | F.O_CREAT | F.O_TRUNC)
            px.write(fd, 10)
            px.read(fd, 10)  # at EOF: returns 0 bytes
            px.close(fd)

        trace, _ = run_traced(program, nranks=1)
        accs = reconstruct_offsets(trace)
        assert len(accs) == 1

    def test_non_posix_layers_ignored(self):
        rec = Recorder(1)
        rec.record(0, Layer.HDF5, "H5Dwrite", 0.0, 0.1, path="/f",
                   count=10)
        assert reconstruct_offsets(rec.build_trace()) == []

    def test_explicit_offset_ops_need_no_fd_state(self):
        rec = Recorder(1)
        rec.record(0, Layer.POSIX, "pwrite", 0.0, 0.1, path="/f", fd=9,
                   offset=5, count=4)
        accs = reconstruct_offsets(rec.build_trace())
        assert len(accs) == 1 and accs[0].offset == 5 and accs[0].stop == 9
