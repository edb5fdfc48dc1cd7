"""Tests for the columnar access-record tables."""

import numpy as np
import pytest

from repro.core.records import (
    AccessRecord,
    AccessTable,
    FileTables,
    group_by_path,
)
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


class TestFileTables:
    RECORDS = [rec(5, 1, 0, 4, path="/b", t=1.0),
               rec(1, 0, 8, 4, path="/a", t=2.0),
               rec(3, 2, 0, 8, write=False, path="/b", t=0.5),
               rec(2, 0, 0, 4, path="/a", t=2.0)]

    def test_views_share_one_table_sorted_by_file_then_time(self):
        tables = group_by_path(self.RECORDS)
        whole = tables.whole
        assert list(tables) == whole.paths == ["/a", "/b"]
        assert whole.rid.tolist() == [1, 2, 3, 5]
        assert tables.bounds.tolist() == [0, 2, 4]
        assert whole.path_id.tolist() == [0, 0, 1, 1]
        assert np.shares_memory(tables["/b"].rid, whole.rid)
        assert [r.path for r in tables["/b"]] == ["/b", "/b"]
        for path, table in tables.items():
            assert table.records == AccessTable(
                path, [r for r in self.RECORDS if r.path == path]).records

    def test_of_joins_a_plain_dict_of_tables(self):
        plain = {path: AccessTable(path, [r for r in self.RECORDS
                                          if r.path == path])
                 for path in ("/b", "/a")}
        joined = FileTables.of(plain)
        assert list(joined) == ["/a", "/b"]
        for path in plain:
            assert joined[path].records == plain[path].records
        assert FileTables.of(joined) is joined
        assert FileTables.of({}) == {}

    def test_views_are_made_when_asked_for(self):
        tables = group_by_path(self.RECORDS)
        assert len(tables) == 2 and "/a" in tables and "/c" not in tables
        assert not tables._views  # no file asked for yet
        view = tables["/b"]
        assert tables["/b"] is view and list(tables._views) == ["/b"]
        assert tables.get("/c") is None
        with pytest.raises(KeyError):
            tables["/c"]
        assert [len(t) for t in tables.values()] == [2, 2]

    def test_a_by_file_list_is_shared_not_sorted(self):
        accesses = group_by_path(self.RECORDS).whole
        assert accesses.by_file
        tables = FileTables(accesses)
        assert tables.whole.rid is accesses.rid
        assert tables.bounds.tolist() == [0, 2, 4]

    def test_empty_extent_names_the_first_bad_row_in_path_order(self):
        bad = [AccessRecord(rid=rid, rank=0, path=path, offset=4, stop=4,
                            is_write=True, tstart=0.0, tend=0.1)
               for rid, path in ((7, "/b"), (8, "/a"), (9, "/a"))]
        with pytest.raises(AnalysisError, match="record 8 has empty"):
            group_by_path(bad)
