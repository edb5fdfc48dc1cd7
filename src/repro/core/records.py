"""Resolved byte-level access records, columnar for vectorized analysis.

After offset reconstruction every POSIX data operation becomes an
:class:`AccessRecord` — the paper's tuple ``(t, r, os, oe, type)`` plus
the fields the conflict conditions need (path, fd, record id).  The
:class:`AccessTable` stores them as numpy arrays per file so the overlap
sweep and the conflict predicates run on contiguous data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


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


class AccessTable:
    """Columnar store of the accesses to one file, sorted by start time.

    Built either from a list of :class:`AccessRecord` objects (the
    original object path) or directly from parallel arrays via
    :meth:`from_columns` — the columnar reconstruction never
    materializes per-op record objects up front.  Either way the numpy
    columns are identical; ``records`` is a property that materializes
    the object list lazily on first touch (the count path never pays
    for it).
    """

    __slots__ = ("path", "_records", "_lazy", "rid", "rank", "offset",
                 "stop", "is_write", "tstart", "tend")

    def __init__(self, path: str, records: list[AccessRecord]):
        for r in records:
            if r.path != path:
                raise AnalysisError(
                    f"record {r.rid} path {r.path!r} != table path {path!r}")
            if r.stop <= r.offset:
                raise AnalysisError(
                    f"record {r.rid} has empty extent [{r.offset},{r.stop})")
        self.path = path
        self._records = sorted(records, key=lambda r: (r.tstart, r.rid))
        self._lazy = None
        n = len(self._records)
        self.rid = np.fromiter((r.rid for r in self._records), np.int64, n)
        self.rank = np.fromiter((r.rank for r in self._records), np.int64, n)
        self.offset = np.fromiter((r.offset for r in self._records),
                                  np.int64, n)
        self.stop = np.fromiter((r.stop for r in self._records),
                                np.int64, n)
        self.is_write = np.fromiter((r.is_write for r in self._records),
                                    np.bool_, n)
        self.tstart = np.fromiter((r.tstart for r in self._records),
                                  np.float64, n)
        self.tend = np.fromiter((r.tend for r in self._records),
                                np.float64, n)

    @classmethod
    def from_columns(cls, path: str, *, rid: np.ndarray, rank: np.ndarray,
                     offset: np.ndarray, stop: np.ndarray,
                     is_write: np.ndarray, tstart: np.ndarray,
                     tend: np.ndarray, fd: np.ndarray | None = None,
                     func_id: np.ndarray | None = None,
                     issuer_id: np.ndarray | None = None,
                     funcs: tuple[str, ...] = (),
                     issuers: tuple[str, ...] = ()) -> "AccessTable":
        """Build a table from parallel arrays, no per-op objects.

        Rows are re-sorted by ``(tstart, rid)`` exactly like the object
        constructor.  ``fd``/``func_id``/``issuer_id`` (with their string
        tables) feed the lazy ``records`` materialization; when omitted,
        materialized records carry the dataclass defaults.
        """
        bad = np.flatnonzero(stop <= offset)
        if bad.size:
            i = int(bad[0])
            raise AnalysisError(
                f"record {int(rid[i])} has empty extent "
                f"[{int(offset[i])},{int(stop[i])})")
        order = np.lexsort((rid, tstart))
        t = cls.__new__(cls)
        t.path = path
        t._records = None
        t.rid = np.ascontiguousarray(rid[order], dtype=np.int64)
        t.rank = np.ascontiguousarray(rank[order], dtype=np.int64)
        t.offset = np.ascontiguousarray(offset[order], dtype=np.int64)
        t.stop = np.ascontiguousarray(stop[order], dtype=np.int64)
        t.is_write = np.ascontiguousarray(is_write[order], dtype=np.bool_)
        t.tstart = np.ascontiguousarray(tstart[order], dtype=np.float64)
        t.tend = np.ascontiguousarray(tend[order], dtype=np.float64)
        t._lazy = (
            None if fd is None else np.asarray(fd[order], dtype=np.int64),
            None if func_id is None else np.asarray(func_id[order]),
            None if issuer_id is None else np.asarray(issuer_id[order]),
            tuple(funcs), tuple(issuers))
        return t

    @property
    def records(self) -> list[AccessRecord]:
        """The sorted :class:`AccessRecord` list (materialized lazily)."""
        if self._records is None:
            self._records = self._materialize()
        return self._records

    def _materialize(self) -> list[AccessRecord]:
        n = len(self.rid)
        fd, func_id, issuer_id, funcs, issuers = self._lazy
        fds = [-1] * n if fd is None else fd.tolist()
        func_names = ([""] * n if func_id is None
                      else [funcs[i] for i in func_id.tolist()])
        issuer_names = (["app"] * n if issuer_id is None
                        else [issuers[i] for i in issuer_id.tolist()])
        path = self.path
        rows = zip(self.rid.tolist(), self.rank.tolist(),
                   self.offset.tolist(), self.stop.tolist(),
                   self.is_write.tolist(), self.tstart.tolist(),
                   self.tend.tolist(), fds, func_names, issuer_names)
        return [AccessRecord(rid=rid, rank=rank, path=path, offset=off,
                             stop=stop, is_write=w, tstart=t0, tend=t1,
                             fd=d, func=fn, issuer=iss)
                for rid, rank, off, stop, w, t0, t1, d, fn, iss in rows]

    def __len__(self) -> int:
        return len(self.rid)

    def __iter__(self):
        return iter(self.records)

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


def group_by_path(records: list[AccessRecord]) -> dict[str, AccessTable]:
    """Bucket resolved accesses into one :class:`AccessTable` per file."""
    buckets: dict[str, list[AccessRecord]] = {}
    for r in records:
        buckets.setdefault(r.path, []).append(r)
    return {path: AccessTable(path, recs)
            for path, recs in sorted(buckets.items())}
