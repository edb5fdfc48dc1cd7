"""Tests for the Darshan-style trace profiler."""

import pytest

import repro
from repro.core.offsets import reconstruct_offsets
from repro.core.records import group_by_path
from repro.tracer.profile import (
    SIZE_BUCKETS,
    bucket_label,
    profile_trace,
    size_bucket,
)


class TestBuckets:
    def test_bucket_boundaries(self):
        assert size_bucket(0) == 0
        assert size_bucket(100) == 0
        assert size_bucket(101) == 1
        assert size_bucket(1024) == 1
        assert size_bucket(5 * 1024 * 1024) == len(SIZE_BUCKETS)

    def test_labels_cover_all(self):
        for i in range(len(SIZE_BUCKETS) + 1):
            assert bucket_label(i)


class TestProfile:
    @pytest.fixture(scope="class")
    def profiled(self):
        trace = repro.run("NWChem", nranks=4, options={"steps": 20})
        tables = group_by_path(reconstruct_offsets(trace))
        return trace, profile_trace(trace, tables)

    def test_file_counters(self, profiled):
        trace, profile = profiled
        traj = profile.files["/nwchem/traj/md.trj"]
        assert traj.writes > 20            # frames + header updates
        assert traj.reads >= 2             # restart read-backs
        assert traj.ranks == {0}
        assert not traj.is_shared
        assert traj.opens == 1
        assert traj.max_offset == 512 + 20 * 4096

    def test_totals_match_trace(self, profiled):
        trace, profile = profiled
        rd, wr = trace.bytes_moved()
        assert profile.total_bytes == (rd, wr)

    def test_shared_vs_unique_split(self):
        trace = repro.run("MILC-QCD", variant="Parallel", nranks=4)
        profile = profile_trace(trace)
        shared = [f.path for f in profile.shared_files]
        assert any(p.endswith(".lat") for p in shared)

    def test_histogram_counts_all_data_ops(self, profiled):
        trace, profile = profiled
        assert sum(profile.histogram()) == len(trace.posix_data_records)

    def test_time_accounting(self, profiled):
        trace, profile = profiled
        # time-in-I/O is summed across ranks, so it's bounded by
        # nranks x wallclock, not by wallclock itself
        assert 0 < profile.time_in_io < profile.wallclock * trace.nranks

    def test_text_rendering(self, profiled):
        _, profile = profiled
        text = profile.to_text()
        assert "Darshan-style profile" in text
        assert "Access-size histogram" in text
        assert "/nwchem/traj/md.trj" in text

    def test_metadata_ops_counted(self, profiled):
        _, profile = profiled
        assert any(f.metadata_ops for f in profile.files.values())


def _rec(rid, rank, func, tstart, tend, **kw):
    from repro.tracer.events import Layer, TraceRecord
    return TraceRecord(rid=rid, rank=rank, layer=Layer.POSIX,
                       issuer=Layer.APP, func=func, tstart=tstart,
                       tend=tend, **kw)


class TestProfileRegressions:
    def test_multi_rank_open_single_rank_write_is_shared(self):
        # every rank opens (and closes) the file; only rank 0 writes.
        # The shared/unique split must count every touch, not just the
        # data operations: this file is shared.
        from repro.tracer.trace import Trace

        records = []
        rid = 0
        for rank in range(4):
            records.append(_rec(rid, rank, "open", 0.1 * rank,
                                0.1 * rank + 0.01, path="/shared.h5",
                                fd=3))
            rid += 1
        records.append(_rec(rid, 0, "pwrite", 0.5, 0.6,
                            path="/shared.h5", fd=3, offset=0,
                            count=4096))
        rid += 1
        for rank in range(4):
            records.append(_rec(rid, rank, "close", 0.7 + 0.1 * rank,
                                0.71 + 0.1 * rank, path="/shared.h5",
                                fd=3))
            rid += 1
        profile = profile_trace(Trace(nranks=4, records=records))
        fp = profile.files["/shared.h5"]
        assert fp.ranks == {0, 1, 2, 3}
        assert fp.is_shared
        assert fp.writes == 1 and fp.bytes_written == 4096

    def test_stat_only_ranks_count_toward_sharing(self):
        from repro.tracer.trace import Trace

        records = [
            _rec(0, 0, "pwrite", 0.0, 0.1, path="/f", fd=3, offset=0,
                 count=10),
            _rec(1, 1, "stat", 0.2, 0.3, path="/f"),
        ]
        profile = profile_trace(Trace(nranks=2, records=records))
        assert profile.files["/f"].ranks == {0, 1}
        assert profile.files["/f"].is_shared

    def test_wallclock_is_span_not_max_tend(self):
        # a trace whose first record starts late: wallclock is the
        # observed span max(tend) - min(tstart), not max(tend)
        from repro.tracer.trace import Trace

        records = [
            _rec(0, 0, "open", 100.0, 100.1, path="/f", fd=3),
            _rec(1, 0, "pwrite", 100.2, 100.5, path="/f", fd=3,
                 offset=0, count=8),
            _rec(2, 0, "close", 100.6, 100.7, path="/f", fd=3),
        ]
        profile = profile_trace(Trace(nranks=1, records=records))
        assert profile.wallclock == pytest.approx(0.7)

    def test_wallclock_when_every_record_precedes_the_origin(self):
        # records before the barrier-aligned origin have negative
        # times; the span is [-3.0, -1.9], not [-3.0, 0.0]
        from repro.tracer.trace import Trace

        records = [
            _rec(0, 0, "open", -3.0, -2.9, path="/f", fd=3),
            _rec(1, 0, "pwrite", -2.5, -2.2, path="/f", fd=3,
                 offset=0, count=8),
            _rec(2, 0, "close", -2.0, -1.9, path="/f", fd=3),
        ]
        profile = profile_trace(Trace(nranks=1, records=records))
        assert profile.wallclock == pytest.approx(1.1)

    def test_wallclock_empty_trace_is_zero(self):
        from repro.tracer.trace import Trace

        profile = profile_trace(Trace(nranks=1, records=[]))
        assert profile.wallclock == 0.0
