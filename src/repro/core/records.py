"""Resolved byte-level access records, columnar for vectorized analysis.

After offset reconstruction every POSIX data operation is a resolved
access — the paper's tuple ``(t, r, os, oe, type)`` plus the fields the
conflict conditions need (path, fd, record id).  An
:class:`AccessList` holds a trace's accesses as numpy columns and an
:class:`AccessTable` one file's, so the overlap sweep and the conflict
predicates run on contiguous data; :class:`AccessRecord` objects are
built only for the rows a caller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

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
    """Resolved accesses as parallel columns, in trace order.

    The offset solve returns one.  Items are :class:`AccessRecord`
    objects built on demand and :attr:`tables` splits the rows by file.
    The :data:`ACCESS_COLUMNS` are attributes; ``path_id``, ``func_id``
    and ``issuer_id`` index ``paths``, ``funcs`` and ``issuers``.
    """

    def __init__(self, columns: dict[str, np.ndarray], paths, funcs,
                 issuers):
        for name in ACCESS_COLUMNS:
            setattr(self, name, columns[name])
        self.paths, self.funcs, self.issuers = paths, funcs, issuers
        super().__init__(len(self.rid), self.records_at)

    def columns(self, rows=slice(None)) -> dict[str, np.ndarray]:
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
    def tables(self) -> dict[str, AccessTable]:
        """One table per file, keyed and ordered by path."""
        order = np.argsort(self.path_id, kind="stable")
        ids, starts = np.unique(self.path_id[order], return_index=True)
        spans = sorted(zip(ids.tolist(), starts.tolist(),
                           np.r_[starts[1:], order.size].tolist()),
                       key=lambda span: self.paths[span[0]])
        return {self.paths[i]: AccessTable.from_columns(
                    self.paths[i], self.columns(order[lo:hi]), self.funcs,
                    self.issuers)
                for i, lo, hi in spans}


class AccessTable(AccessList):
    """The accesses to one file, sorted by ``(tstart, rid)``.

    Built from :class:`AccessRecord` objects or, with
    :meth:`from_columns`, from arrays."""

    def __init__(self, path: str, records: Iterable[AccessRecord]):
        records = list(records)
        for r in records:
            if r.path != path:
                raise AnalysisError(
                    f"record {r.rid} path {r.path!r} != table path {path!r}")
        columns = {name: np.array([getattr(r, name) for r in records],
                                  dtype=dtype)
                   for name, dtype in _FIELD_DTYPES.items()}
        funcs, columns["func_id"] = interned([r.func for r in records])
        issuers, columns["issuer_id"] = interned([r.issuer
                                                  for r in records])
        self._sort_into(path, columns, funcs, issuers)

    @classmethod
    def from_columns(cls, path: str, columns: dict[str, np.ndarray],
                     funcs, issuers) -> "AccessTable":
        """A table from :data:`ACCESS_COLUMNS` arrays, no per-op objects.

        ``path_id`` is ignored; rows re-sort like the object
        constructor's."""
        table = cls.__new__(cls)
        table._sort_into(path, columns, funcs, issuers)
        return table

    def _sort_into(self, path: str, columns: dict[str, np.ndarray],
                   funcs, issuers) -> None:
        bad = np.flatnonzero(columns["stop"] <= columns["offset"])
        if bad.size:
            i = int(bad[0])
            raise AnalysisError(
                f"record {int(columns['rid'][i])} has empty extent "
                f"[{int(columns['offset'][i])},{int(columns['stop'][i])})")
        columns["path_id"] = np.zeros(len(columns["rid"]), dtype=np.int64)
        order = np.lexsort((columns["rid"], columns["tstart"]))
        super().__init__({name: np.ascontiguousarray(columns[name][order])
                          for name in ACCESS_COLUMNS},
                         [path], list(funcs), list(issuers))
        self.path = path

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


def group_by_path(records: "AccessList | Iterable[AccessRecord]"
                  ) -> dict[str, AccessTable]:
    """Bucket resolved accesses into one :class:`AccessTable` per file.

    An :class:`AccessList` splits its columns (:attr:`AccessList.tables`);
    any other iterable of records is bucketed object by object.
    """
    if isinstance(records, AccessList):
        return records.tables
    buckets: dict[str, list[AccessRecord]] = {}
    for r in records:
        buckets.setdefault(r.path, []).append(r)
    return {path: AccessTable(path, recs)
            for path, recs in sorted(buckets.items())}
