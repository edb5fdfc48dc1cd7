"""Tests for the columnar access-record tables."""

import numpy as np
import pytest

from repro.core.records import AccessRecord, AccessTable, group_by_path
from repro.errors import AnalysisError


def rec(rid, rank, off, n, write=True, path="/f", t=None):
    ts = float(rid if t is None else t)
    return AccessRecord(rid=rid, rank=rank, path=path, offset=off,
                        stop=off + n, is_write=write, tstart=ts,
                        tend=ts + 0.1)


class TestAccessRecord:
    def test_derived_fields(self):
        r = rec(0, 1, 10, 5)
        assert r.nbytes == 5
        assert r.oe_inclusive == 14  # paper's inclusive oe = stop - 1


class TestAccessTable:
    def test_sorted_by_time(self):
        t = AccessTable("/f", [rec(2, 0, 0, 4, t=5.0),
                               rec(1, 0, 8, 4, t=1.0)])
        assert t.rid.tolist() == [1, 2]
        assert np.all(np.diff(t.tstart) >= 0)

    def test_rejects_wrong_path(self):
        with pytest.raises(AnalysisError, match="path"):
            AccessTable("/f", [rec(0, 0, 0, 4, path="/g")])

    def test_rejects_empty_extent(self):
        with pytest.raises(AnalysisError, match="empty extent"):
            AccessTable("/f", [AccessRecord(
                rid=0, rank=0, path="/f", offset=5, stop=5,
                is_write=True, tstart=0.0, tend=0.1)])

    def test_writer_reader_sets(self):
        t = AccessTable("/f", [rec(0, 0, 0, 4, write=True),
                               rec(1, 1, 0, 4, write=False),
                               rec(2, 2, 4, 4, write=True)])
        assert t.writer_ranks == {0, 2}
        assert t.reader_ranks == {1}

    def test_byte_totals(self):
        t = AccessTable("/f", [rec(0, 0, 0, 10, write=True),
                               rec(1, 1, 0, 6, write=False)])
        assert t.bytes_written == 10
        assert t.bytes_read == 6

    def test_len_and_iter(self):
        t = AccessTable("/f", [rec(0, 0, 0, 4)])
        assert len(t) == 1
        assert next(iter(t)).rid == 0


class TestGroupByPath:
    def test_buckets(self):
        records = [rec(0, 0, 0, 4, path="/a"),
                   rec(1, 0, 0, 4, path="/b"),
                   rec(2, 1, 4, 4, path="/a")]
        tables = group_by_path(records)
        assert set(tables) == {"/a", "/b"}
        assert len(tables["/a"]) == 2

    def test_empty(self):
        assert group_by_path([]) == {}
