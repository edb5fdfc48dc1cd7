"""Resolved byte-level access records, columnar for vectorized analysis.

After offset reconstruction every POSIX data operation is a resolved
access — the paper's tuple ``(t, r, os, oe, type)`` plus the fields the
conflict conditions need (path, fd, record id).  An
:class:`AccessList` holds a trace's accesses as numpy columns; the
offset solve returns one already sorted by file
(:func:`sorted_by_file`).  :class:`FileTables` shares its arrays: one
trace-wide table that the per-trace stages sweep whole, and an
:class:`AccessTable` view of a file, made when a caller asks for it.
:class:`AccessRecord` objects are built only for the rows a caller asks
for.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.tracer.columnar import RowView, interned


@dataclass(frozen=True)
class AccessRecord:
    """One resolved data access.

    ``offset``/``stop`` are half-open; the paper's inclusive ``oe`` is
    ``stop - 1``.  Zero-length accesses never enter a table.
    """

    rid: int
    rank: int
    path: str
    offset: int
    stop: int
    is_write: bool
    tstart: float
    tend: float
    fd: int = -1
    func: str = ""
    issuer: str = "app"

    @property
    def nbytes(self) -> int:
        return self.stop - self.offset

    @property
    def oe_inclusive(self) -> int:
        return self.stop - 1


#: the columns of every access list and table
ACCESS_COLUMNS = ("rid", "rank", "offset", "stop", "is_write", "tstart",
                  "tend", "fd", "func_id", "issuer_id", "path_id")
#: the dtypes of the columns an :class:`AccessRecord` field fills
_FIELD_DTYPES = {"rid": np.int64, "rank": np.int64, "offset": np.int64,
                 "stop": np.int64, "is_write": np.bool_,
                 "tstart": np.float64, "tend": np.float64, "fd": np.int64}


class AccessList(RowView):
    """Resolved accesses as parallel columns.

    Items are :class:`AccessRecord` objects built on demand, and
    :attr:`tables` groups the rows by file.  The :data:`ACCESS_COLUMNS`
    are attributes; ``path_id``, ``func_id`` and ``issuer_id`` index
    ``paths``, ``funcs`` and ``issuers``.  A list is ``by_file`` when
    its rows are sorted by file, then ``(tstart, rid)``, and ``paths``
    are its files in path order, each with at least one row.  The offset
    solve returns such a list (:func:`sorted_by_file`), and its
    :attr:`tables` share its arrays instead of sorting them.
    """

    def __init__(self, columns: dict[str, np.ndarray], paths, funcs,
                 issuers, *, by_file: bool = False):
        for name in ACCESS_COLUMNS:
            setattr(self, name, columns[name])
        self.paths, self.funcs, self.issuers = paths, funcs, issuers
        self.by_file = by_file
        super().__init__(len(self.rid), self.records_at)

    @classmethod
    def from_records(cls, records: Iterable[AccessRecord]) -> "AccessList":
        """The columns of some :class:`AccessRecord` objects, in their
        order."""
        records = list(records)
        columns = {name: np.array([getattr(r, name) for r in records],
                                  dtype=dtype)
                   for name, dtype in _FIELD_DTYPES.items()}
        paths, columns["path_id"] = interned([r.path for r in records])
        funcs, columns["func_id"] = interned([r.func for r in records])
        issuers, columns["issuer_id"] = interned([r.issuer
                                                  for r in records])
        return cls(columns, paths, funcs, issuers)

    def columns(self, rows=None) -> dict[str, np.ndarray]:
        """The columns of ``rows`` (a slice or an index array), or the
        columns themselves."""
        if rows is None:
            return {name: getattr(self, name) for name in ACCESS_COLUMNS}
        return {name: getattr(self, name)[rows] for name in ACCESS_COLUMNS}

    def records_at(self, rows) -> list[AccessRecord]:
        """The :class:`AccessRecord` objects of ``rows`` only.

        ``rows`` is a slice or an index array."""
        paths, funcs, issuers = self.paths, self.funcs, self.issuers
        return [AccessRecord(rid=rid, rank=rank, path=paths[p],
                             offset=off, stop=stop, is_write=w,
                             tstart=t0, tend=t1, fd=fd, func=funcs[f],
                             issuer=issuers[i])
                for rid, rank, off, stop, w, t0, t1, fd, f, i, p in zip(
                    *(c.tolist() for c in self.columns(rows).values()))]

    @cached_property
    def tables(self) -> "FileTables":
        """One table per file, keyed and ordered by path."""
        return FileTables(self)


def run_bounds(*keys: np.ndarray) -> np.ndarray:
    """Where the runs of equal adjacent rows start, then the row count.

    Run ``i`` is rows ``b[i]:b[i + 1]``.  A row starts a run when any
    of the equal-length ``keys`` changes there."""
    n = keys[0].size
    if not n:
        return np.zeros(1, dtype=np.int64)
    change = np.zeros(n - 1, dtype=bool)
    for key in keys:
        change |= key[1:] != key[:-1]
    return np.concatenate(([0], np.flatnonzero(change) + 1, [n]))


def sorted_by_file(paths: list[str], path_id: np.ndarray,
                   gather: Callable[[np.ndarray], dict[str, np.ndarray]],
                   funcs, issuers) -> AccessList:
    """Accesses sorted by file, in path order, then by ``(tstart, rid)``.

    ``path_id`` indexes ``paths`` for each access, and ``gather(order)``
    returns the other :data:`ACCESS_COLUMNS` of the accesses in
    ``order``, so a caller gathers each column once.  One stable sort by
    file orders the rows, a radix sort while the file index fits 16
    bits.  Accesses that come in start order are then in ``(tstart,
    rid)`` order within each file; when ranks interleave out of start
    order, the rows are sorted again.  The result is ``by_file``: its
    ``paths`` are the files with an access, and its ``path_id`` is each
    row's index into them.
    """
    counts = np.bincount(path_id, minlength=len(paths))
    files = sorted(np.flatnonzero(counts).tolist(), key=paths.__getitem__)
    # each file's place in path order; a 16-bit key sorts by radix
    place = np.zeros(len(paths),
                     np.uint16 if len(files) <= 1 << 16 else np.int64)
    place[files] = np.arange(len(files))
    columns = gather(np.argsort(place[path_id], kind="stable"))
    sizes = counts[files]
    columns["path_id"] = np.repeat(np.arange(len(files)), sizes)
    t, rid = columns["tstart"], columns["rid"]
    later = (t[1:] > t[:-1]) | ((t[1:] == t[:-1]) & (rid[1:] > rid[:-1]))
    later[np.cumsum(sizes)[:-1] - 1] = True  # each file's first row
    if not later.all():
        order = np.lexsort((rid, t, columns["path_id"]))
        columns = {name: column[order] for name, column in columns.items()}
    return AccessList(columns, [paths[p] for p in files], funcs, issuers,
                      by_file=True)


def _check_extents(accesses: AccessList) -> None:
    """Raise on the first access with an empty extent."""
    bad = np.flatnonzero(accesses.stop <= accesses.offset)
    if bad.size:
        i = int(bad[0])
        raise AnalysisError(
            f"record {int(accesses.rid[i])} has empty extent "
            f"[{int(accesses.offset[i])},{int(accesses.stop[i])})")


class FileTables(Mapping):
    """One :class:`AccessTable` per file, keyed and ordered by path.

    The tables are zero-copy views of :attr:`whole`: every access of the
    trace in one ``by_file`` :class:`AccessList`, sorted by file (in
    path order), then ``(tstart, rid)``.  Its ``path_id`` column is the
    file's index in path order, its ``paths`` are the files' paths, and
    ``bounds[f]:bounds[f + 1]`` are file ``f``'s rows.  The stages that
    run once per trace read :attr:`whole`; a file's rows are one slice
    of it, and its view is made the first time it is asked for.  A list
    that is not ``by_file`` is sorted first (:func:`sorted_by_file`).
    """

    def __init__(self, accesses: AccessList):
        if not accesses.by_file:
            accesses = sorted_by_file(accesses.paths, accesses.path_id,
                                      accesses.columns, accesses.funcs,
                                      accesses.issuers)
        _check_extents(accesses)
        # a list of its own over the same arrays, so that the tables of
        # a list hold no reference back to it
        self.whole = AccessList(accesses.columns(), accesses.paths,
                                accesses.funcs, accesses.issuers,
                                by_file=True)
        paths = self.whole.paths
        self.bounds = np.searchsorted(self.whole.path_id,
                                      np.arange(len(paths) + 1))
        self._file = dict(zip(paths, range(len(paths))))
        self._views: dict[str, AccessTable] = {}

    def __getitem__(self, path: str) -> "AccessTable":
        view = self._views.get(path)
        if view is None:
            f = self._file[path]
            view = self._views[path] = AccessTable.view(
                self.whole, path, int(self.bounds[f]),
                int(self.bounds[f + 1]))
        return view

    def __iter__(self) -> Iterator[str]:
        return iter(self.whole.paths)

    def __len__(self) -> int:
        return len(self.whole.paths)

    def __contains__(self, path) -> bool:
        return path in self._file

    @cached_property
    def _rank_radix(self) -> tuple[np.ndarray | None, int]:
        """``(None, radix)`` while ``file * radix + rank`` cannot wrap
        int64, else ``(ranks, len(ranks))``: the distinct ranks, whose
        index then stands in for the rank."""
        rank = self.whole.rank
        radix = int(rank.max(initial=-1)) + 1
        if len(self) * radix < 1 << 63:
            return None, radix
        values = np.unique(rank)
        return values, values.size

    def rank_key(self, major: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """Exact int64 keys of ``(major, rank)`` pairs, ordered like the
        pairs, for a ``major`` below the file count (a file's index, say);
        a rank with no access gets -1."""
        values, radix = self._rank_radix
        if values is None:
            return np.where(rank < radix, major * radix + rank, -1)
        at = np.minimum(np.searchsorted(values, rank), radix - 1)
        return np.where(values[at] == rank, major * radix + at, -1)

    @cached_property
    def row_key(self) -> np.ndarray:
        """Each row's (file, rank) key (:meth:`rank_key`)."""
        return self.rank_key(self.whole.path_id, self.whole.rank)

    @cached_property
    def rank_order(self) -> np.ndarray:
        """The rows regrouped rank by rank within each file, each rank's
        rows kept in time order: the (rank, file) sequences, one after
        another."""
        return np.argsort(self.row_key, kind="stable")

    @classmethod
    def of(cls, tables: dict[str, "AccessTable"]) -> "FileTables":
        """``tables`` itself when it is one, else the same files as one."""
        if isinstance(tables, FileTables):
            return tables
        # lint: allow-per-op-loop (a plain dict of tables is read once)
        return AccessList.from_records(
            r for path in sorted(tables) for r in tables[path].records
        ).tables


class AccessTable(AccessList):
    """The accesses to one file, sorted by ``(tstart, rid)``.

    Built from :class:`AccessRecord` objects, or as a :meth:`view` of a
    trace-wide table."""

    def __init__(self, path: str, records: Iterable[AccessRecord]):
        records = list(records)
        for r in records:
            if r.path != path:
                raise AnalysisError(
                    f"record {r.rid} path {r.path!r} != table path {path!r}")
        accesses = AccessList.from_records(records)
        _check_extents(accesses)
        order = np.lexsort((accesses.rid, accesses.tstart))
        super().__init__(accesses.columns(order), [path], accesses.funcs,
                         accesses.issuers)
        self.path = path

    @classmethod
    def view(cls, whole: AccessList, path: str, lo: int,
             hi: int) -> "AccessTable":
        """Rows ``lo:hi`` of ``whole``, one file's, as a table that
        shares its arrays."""
        table = cls.__new__(cls)
        AccessList.__init__(table, whole.columns(slice(lo, hi)),
                            whole.paths, whole.funcs, whole.issuers)
        table.path = path
        return table

    @cached_property
    def records(self) -> list[AccessRecord]:
        """Every row's :class:`AccessRecord` (built once, on first use)."""
        return self.records_at(slice(None))

    @property
    def writer_ranks(self) -> set[int]:
        return set(self.rank[self.is_write].tolist())

    @property
    def reader_ranks(self) -> set[int]:
        return set(self.rank[~self.is_write].tolist())

    @property
    def bytes_written(self) -> int:
        w = self.is_write
        return int(np.sum(self.stop[w] - self.offset[w]))

    @property
    def bytes_read(self) -> int:
        r = ~self.is_write
        return int(np.sum(self.stop[r] - self.offset[r]))


class AccessPairs(NamedTuple):
    """Ordered access pairs as columns of ranks and times.

    ``rank``, ``tstart`` and ``tend`` are ``(2, n)`` arrays: row 0 holds
    each pair's first access, row 1 its second.  ``records(pairs)``
    builds the :class:`AccessRecord` pairs of the pair indices given,
    so a check that reads only ranks and times makes objects only for
    the pairs it reports.
    """

    rank: np.ndarray
    tstart: np.ndarray
    tend: np.ndarray
    records: Callable[[Sequence[int]],
                      list[tuple[AccessRecord, AccessRecord]]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[AccessRecord, AccessRecord]]
           ) -> "AccessPairs":
        """The columns of some record pairs."""
        pairs = list(pairs)

        def column(name: str, dtype) -> np.ndarray:
            return np.array([[getattr(r, name) for r in side]
                             for side in zip(*pairs)] or [[], []],
                            dtype=dtype)

        return cls(column("rank", np.int64), column("tstart", np.float64),
                   column("tend", np.float64),
                   lambda rows: [pairs[i] for i in rows])


def group_by_path(records: "AccessList | Iterable[AccessRecord]"
                  ) -> FileTables:
    """Bucket resolved accesses into one :class:`AccessTable` per file.

    A ``by_file`` :class:`AccessList`, as the offset solve returns, only
    has its file bounds found and shares its arrays; any other list is
    sorted by file once (:attr:`AccessList.tables`), and any other
    iterable of records is read into columns first.
    """
    if not isinstance(records, AccessList):
        records = AccessList.from_records(records)
    return records.tables
