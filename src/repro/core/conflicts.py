"""Conflict detection under relaxed consistency semantics (paper §5.2).

Two accesses to the same file, ordered ``t1 < t2``, are a *potential
conflict* when they overlap and the first is a write; they are classified
RAW/WAW × same-process (S) / different-process (D).  Whether a potential
conflict is an *actual* conflict depends on the PFS model:

* **strong** — never (sequential consistency hides write latency);
* **commit** — conflict iff the writer executes no commit operation
  (``fsync``/``fdatasync``/``fflush``/``close``/``fclose``) on the file in
  ``(t1, t2)``;
* **session** — conflict iff there is no close by the writer at ``tc``
  and open by the second process at ``to`` with ``t1 < tc < to < t2``;
* **eventual** — every potential conflict is an actual conflict (no
  operation forces visibility);
* **object** — conflicts exist at *whole-object* granularity, not byte
  granularity.  Accesses are coalesced into PUT/GET sessions (one per
  ``(rank, open..close)`` window); a PUT session conflicts with every
  other session on the object unless the PUT's close precedes the other
  session's open — the only visibility edge an immutable-PUT store
  offers.  Byte overlap is irrelevant: two disjoint-byte writers racing
  on one object clobber each other's whole-object versions.

Every model runs once per trace, over the trace-wide table of
:class:`~repro.core.records.FileTables` (all accesses, sorted by file,
then time): one overlap sweep whose pairs never join two files, one
batched "first event of this (file, rank) after t" search per condition
(:class:`_Timeline`), and one pass that cuts the object model's sessions
and pairs.  :class:`FileConflicts` views are made only for the files
with conflicts.

Commit-conflicts are a subset of session-conflicts: a qualifying
close/open pair implies the writer closed, and close counts as a commit.
A property test pins that theorem.  Session-conflicts are in turn a
subset of object-conflicts (every overlapping pair is a whole-object
pair, and object clearing implies session clearing), which is why
``SESSION >= OBJECT`` in the semantics lattice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.core.overlaps import find_overlaps
from repro.core.records import (
    AccessPairs,
    AccessRecord,
    AccessTable,
    FileTables,
    run_bounds,
)
from repro.core.semantics import Semantics
from repro.tracer.events import CLOSE_OPS, COMMIT_OPS, OPEN_OPS
from repro.tracer.trace import Trace


class ConflictKind(str, enum.Enum):
    RAW = "RAW"
    WAW = "WAW"

    def __str__(self) -> str:
        return self.value


class ConflictScope(str, enum.Enum):
    SAME = "S"
    DIFFERENT = "D"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Conflict:
    """One conflicting access pair (first is always the write)."""

    path: str
    kind: ConflictKind
    scope: ConflictScope
    first: AccessRecord
    second: AccessRecord

    @property
    def label(self) -> str:
        return f"{self.kind.value}-{self.scope.value}"


#: the Table 4 cells in flag order; a pair's cell index is
#: ``2 * (not WAW) + (not same-process)``
LABELS = ("WAW-S", "WAW-D", "RAW-S", "RAW-D")
_KINDS = (ConflictKind.RAW, ConflictKind.WAW)
_SCOPES = (ConflictScope.DIFFERENT, ConflictScope.SAME)
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_FLAGS = np.empty(0, dtype=bool)


def _cell_counts(waw: np.ndarray, same: np.ndarray) -> list[int]:
    """Pairs per Table 4 cell, in :data:`LABELS` order."""
    return np.bincount(2 * ~waw + ~same, minlength=len(LABELS)).tolist()


class FileConflicts(NamedTuple):
    """One file's conflicting pairs, in report order.

    ``first`` and ``second`` are row indices into ``table`` (the
    earlier access, always a write, and the later one); ``waw`` and
    ``same`` are the WAW-vs-RAW kind and same-process scope masks.
    """

    table: AccessTable
    first: np.ndarray
    second: np.ndarray
    waw: np.ndarray
    same: np.ndarray

    def select(self, keep) -> "FileConflicts":
        """The pairs that ``keep`` (a mask, an index array or a slice)
        selects."""
        return FileConflicts(self.table, self.first[keep],
                             self.second[keep], self.waw[keep],
                             self.same[keep])

    def conflicts(self) -> Iterator[Conflict]:
        """The pairs as :class:`Conflict` objects; each row becomes one
        :class:`AccessRecord`, shared by the pairs it is in."""
        n = len(self.first)
        rows, index = np.unique(np.concatenate((self.first, self.second)),
                                return_inverse=True)
        records = self.table.records_at(rows)
        path = self.table.path
        for i, j, w, s in zip(index[:n].tolist(), index[n:].tolist(),
                              self.waw.tolist(), self.same.tolist()):
            yield Conflict(path=path, kind=_KINDS[w], scope=_SCOPES[s],
                           first=records[i], second=records[j])


class ConflictSet:
    """All conflicts of a run under one semantics model, as arrays.

    ``files`` holds one :class:`FileConflicts` per conflicted file, in
    path order; ``counts``, the pairs per Table 4 cell, is summed from
    them unless given.  Counts, flags, paths and the verdicts of
    :mod:`repro.core.semantics` read the arrays; :class:`Conflict` and
    :class:`AccessRecord` objects are built only when the set is
    iterated.
    """

    def __init__(self, semantics: Semantics,
                 files: Iterable[FileConflicts] = (),
                 counts: Iterable[int] | None = None):
        self.semantics = semantics
        self.files = [f for f in files if len(f.first)]
        if counts is None:
            counts = _cell_counts(
                np.concatenate([f.waw for f in self.files] or [_NO_FLAGS]),
                np.concatenate([f.same for f in self.files] or [_NO_FLAGS]))
        self._counts = tuple(counts)

    def __len__(self) -> int:
        return sum(self._counts)

    def __iter__(self) -> Iterator[Conflict]:
        for f in self.files:
            yield from f.conflicts()

    def __bool__(self) -> bool:
        return bool(self.files)

    def __repr__(self) -> str:
        return (f"ConflictSet({self.semantics.name}, {len(self)} "
                f"conflicts in {len(self.files)} files)")

    @property
    def counts(self) -> dict[str, int]:
        """Pairs per Table 4 cell: ``{"WAW-S": n, "WAW-D": n, ...}``."""
        return dict(zip(LABELS, self._counts))

    def has(self, kind: ConflictKind, scope: ConflictScope) -> bool:
        return self.counts[f"{kind.value}-{scope.value}"] > 0

    @property
    def flags(self) -> dict[str, bool]:
        """Table 4 cell flags: ``{"WAW-S": ..., "WAW-D": ..., ...}``."""
        return {label: n > 0 for label, n in zip(LABELS, self._counts)}

    @property
    def cross_process_count(self) -> int:
        """Pairs whose two accesses come from different ranks."""
        counts = self.counts
        return counts["WAW-D"] + counts["RAW-D"]

    @property
    def paths(self) -> list[str]:
        return [f.table.path for f in self.files]

    def by_path(self) -> dict[str, list[Conflict]]:
        return {f.table.path: list(f.conflicts()) for f in self.files}

    @property
    def cross_process_only(self) -> "ConflictSet":
        return ConflictSet(self.semantics,
                           (f.select(~f.same) for f in self.files))

    def access_pairs(self) -> AccessPairs:
        """The pairs as rank and time columns; :class:`AccessRecord`
        objects are built only for the pairs asked for."""
        files = self.files
        sizes = np.cumsum([0] + [len(f.first) for f in files])

        def column(name: str, dtype) -> np.ndarray:
            return np.concatenate(
                [np.stack((getattr(f.table, name)[f.first],
                           getattr(f.table, name)[f.second]))
                 for f in files] or [np.empty((2, 0), dtype)], axis=1)

        def records(rows) -> list[tuple[AccessRecord, AccessRecord]]:
            if not len(rows):
                return []
            rows = np.asarray(rows, dtype=np.int64)
            file = np.searchsorted(sizes, rows, side="right") - 1
            out: list = [None] * rows.size
            for f in np.unique(file).tolist():
                at = np.flatnonzero(file == f)
                for i, c in zip(at.tolist(), files[f].select(
                        rows[at] - sizes[f]).conflicts()):
                    out[i] = (c.first, c.second)
            return out

        return AccessPairs(column("rank", np.int64),
                           column("tstart", np.float64),
                           column("tend", np.float64), records)


#: the event families of the §5.2 visibility conditions; close is a
#: commit too, so closes appear in both the close and commit families
_FAMILIES = (("open", OPEN_OPS), ("close", CLOSE_OPS),
             ("commit", COMMIT_OPS))


class VisibilityIndex:
    """Sorted POSIX open, close and commit times of a trace.

    Each family is three parallel arrays sorted by (path, rank, time):
    the path's index in :attr:`paths` (the trace's paths in order), the
    rank and the time.  Conditions 3 and 4 of §5.2 and the object
    model's sessions become ``searchsorted`` calls against these
    timelines (the paper suggests binary search), evaluated over every
    candidate of a trace at once (:meth:`along`).  One index serves
    every semantics model of a run.  It reads the trace's columns: per
    family one mask and one lexsort.
    """

    def __init__(self, trace: Trace):
        ct = trace.columnar
        c = ct.columns
        by_name = sorted(range(len(ct.paths)), key=ct.paths.__getitem__)
        self.paths = [ct.paths[i] for i in by_name]
        self._place = {path: i for i, path in enumerate(self.paths)}
        place = np.empty(len(by_name), dtype=np.int64)
        place[by_name] = np.arange(len(by_name))
        base = ct.posix_mask() & (c["path_id"] >= 0)
        self._events = {}
        for family, ops in _FAMILIES:
            rows = np.flatnonzero(base & ct.func_lookup(ops)[c["func_id"]])
            path = place[c["path_id"][rows]]
            rank = c["rank"][rows]
            t = c["tstart"][rows]
            order = np.lexsort((t, rank, path))
            self._events[family] = (path[order], rank[order], t[order])

    def _span(self, family: str, path: str) -> tuple[int, int]:
        """The rows of one path in a family's arrays."""
        at = self._place.get(path)
        if at is None:
            return 0, 0
        lo, hi = np.searchsorted(self._events[family][0], [at, at + 1])
        return int(lo), int(hi)

    def times(self, family: str, rank: int, path: str) -> np.ndarray:
        """Sorted times of one rank's events of one family on a path.

        ``family`` is ``"open"``, ``"close"`` or ``"commit"``.
        """
        lo, hi = self._span(family, path)
        _, ranks, t = self._events[family]
        a, b = lo + np.searchsorted(ranks[lo:hi], [rank, rank + 1])
        return t[a:b]

    def path_times(self, family: str, path: str
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Every rank's events of one family on a path, as ``(rank,
        time)`` arrays sorted by rank, then time."""
        lo, hi = self._span(family, path)
        _, ranks, t = self._events[family]
        return ranks[lo:hi], t[lo:hi]

    def along(self, family: str, paths: list[str]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The events of one family on the sorted ``paths``, as ``(file,
        rank, time)`` arrays sorted in that order; ``file`` indexes
        ``paths``."""
        to = np.full(len(self.paths) + 1, -1, dtype=np.int64)
        to[np.array([self._place.get(p, -1) for p in paths],
                    dtype=np.int64)] = np.arange(len(paths))
        path, rank, t = self._events[family]
        file = to[:-1][path]
        keep = file >= 0
        return file[keep], rank[keep], t[keep]


class _Timeline:
    """One event family on a trace's files, in (file, rank) key and time
    order, set up for batched searches.

    :meth:`position` finds each query's place with one ``searchsorted``:
    times become their rank among the event times and keys their
    group's index, so (group, time) is one int64 that cannot wrap, both
    being below ``m + 1`` for ``m`` events.
    """

    def __init__(self, key: np.ndarray, t: np.ndarray):
        self.key, self.t = key, t
        self._times = np.sort(t)
        bounds = run_bounds(key)
        self._groups = key[bounds[:-1]]
        self._code = (np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
                      * (t.size + 1) + np.searchsorted(self._times, t))

    def position(self, key: np.ndarray, t: np.ndarray) -> np.ndarray:
        """How many events come at or before each query in (key, time)
        order.  The event there, when it has the query's key, is that
        key's first event after the query's time; the one before it,
        likewise, is the key's last event at or before it."""
        if not self.t.size:
            return np.zeros(key.size, dtype=np.int64)
        group = np.searchsorted(self._groups, key)
        found = self._groups[np.minimum(group, self._groups.size - 1)] == key
        rank = np.where(found,
                        np.searchsorted(self._times, t, side="right") - 1, -1)
        return np.searchsorted(self._code, group * (self.t.size + 1) + rank,
                               side="right")

    def time_at(self, key: np.ndarray, pos: np.ndarray,
                missing: float) -> np.ndarray:
        """The time of event ``pos`` where it exists and has key ``key``,
        else ``missing``."""
        if not self.t.size:
            return np.full(pos.size, missing)
        at = np.clip(pos, 0, self.t.size - 1)
        return np.where((pos >= 0) & (pos < self.t.size)
                        & (self.key[at] == key), self.t[at], missing)

    def next_time(self, key: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Each query's first event time of its key strictly after ``t``
        (``inf`` when there is none)."""
        return self.time_at(key, self.position(key, t), np.inf)


class _Shared:
    """What the models of one trace share: each family's timeline in the
    tables' (file, rank) keys, and the byte-level candidate pairs."""

    def __init__(self, tables: FileTables, vis):
        self.tables = tables
        self._vis = vis
        self._timelines: dict[str, _Timeline] = {}
        self._candidates = None

    def timeline(self, family: str) -> _Timeline:
        if family not in self._timelines:
            file, rank, t = self._vis.along(family, self.tables.whole.paths)
            key = self.tables.rank_key(file, rank)
            keep = key >= 0
            self._timelines[family] = _Timeline(key[keep], t[keep])
        return self._timelines[family]

    @property
    def candidates(self):
        if self._candidates is None:
            self._candidates = candidate_pairs(self.tables)
        return self._candidates


def candidate_pairs(tables: FileTables):
    """Every file's potential conflicts, from one overlap sweep.

    These are the overlapping pairs whose earlier access is a write, as
    ``(first, second, waw, same)`` arrays over the rows of
    ``tables.whole``.  Each pair is ordered by start time, and a tie
    keeps the lower offset (then the earlier row) first.  The pairs come
    in report order: by file, then the first access's start time, then
    the second's.  Every byte-level model filters these same pairs.
    """
    whole = tables.whole
    pairs = find_overlaps(whole)
    t = whole.tstart
    swap = t[pairs[:, 0]] > t[pairs[:, 1]]
    pairs[swap] = pairs[swap][:, ::-1]
    pairs = pairs[whole.is_write[pairs[:, 0]]]
    # a stable sort, so filtering the sorted pairs later keeps the
    # order a sort after filtering would give
    first, second = pairs.T
    order = np.lexsort((t[second], t[first], whole.path_id[first]))
    first, second = first[order], second[order]
    return (first, second, whole.is_write[second],
            whole.rank[first] == whole.rank[second])


def _cleared(shared: _Shared, first: np.ndarray, second: np.ndarray,
             semantics: Semantics) -> np.ndarray:
    """Vectorized §5.2 conditions 3/4 (``COMMIT``/``SESSION``): which
    candidate pairs a commit, or a close and a later open, clears.

    Each condition is one batched search of the writer's (or reader's)
    event timeline on the pair's file."""
    key = shared.tables.row_key
    t = shared.tables.whole.tstart
    t1, t2 = t[first], t[second]
    if semantics is Semantics.COMMIT:
        return shared.timeline("commit").next_time(key[first], t1) < t2
    # session: exists close by r1 at tc and open by r2 at to with
    # t1 < tc < to < t2
    tc = shared.timeline("close").next_time(key[first], t1)
    sel = np.flatnonzero(np.isfinite(tc) & (tc < t2))
    cleared = np.zeros(first.size, dtype=bool)
    cleared[sel] = shared.timeline("open").next_time(
        key[second[sel]], tc[sel]) < t2[sel]
    return cleared


def _object_sessions(shared: _Shared):
    """Coalesce each file's accesses into whole-object PUT/GET sessions.

    A session is one ``(rank, open..close)`` window: every access is
    assigned to the last open at-or-before it by its rank, and the
    session's close is the first close after its latest member access
    (``inf`` when the window never closes — an unpublished PUT).
    Accesses with no preceding open fall into one catch-all session per
    rank, which is conservative: it can only merge sessions, never
    invent a clearing close/open edge.

    The accesses are taken file by file, rank by rank, in time order:
    one search of the opens cuts them into sessions, and each session
    searches the opens and closes once more.

    Returns parallel per-session arrays, sorted by (file, open time,
    first access time, first row): ``file``, ``rank``, ``open_t``,
    ``close_t``, ``put`` (has at least one write), ``first_row``
    (earliest access), ``write_row`` (earliest write, -1 for GET
    sessions); rows index ``tables.whole``.
    """
    tables = shared.tables
    whole = tables.whole
    n = len(whole)
    if not n:
        return ((_NO_ROWS,) * 2 + (np.empty(0, np.float64),) * 2
                + (_NO_FLAGS,) + (_NO_ROWS,) * 2)
    rows = tables.rank_order
    key = tables.row_key[rows]
    t = whole.tstart[rows]
    opens = shared.timeline("open")
    # how many opens come at or before each access: a session is a run
    # of one (file, rank) over which that count stays put
    opened = opens.position(key, t)
    bounds = run_bounds(key, opened)
    starts, stops = bounds[:-1], bounds[1:]
    s_first = rows[starts]
    s_open = opens.time_at(key[starts], opened[starts] - 1, -np.inf)
    # a session publishes at the first close after its *last* member
    # access, and its first row is its earliest access
    s_close = shared.timeline("close").next_time(key[stops - 1],
                                                 t[stops - 1])
    # earliest write row of each session: its first write in row order
    writes = np.concatenate((np.flatnonzero(whole.is_write[rows]), [n]))
    wi = writes[np.searchsorted(writes, starts)]
    s_put = wi < stops
    s_write = np.where(s_put, rows[np.minimum(wi, n - 1)], -1)
    # deterministic session order: file, open time, then first access
    # (rows of a file are in time order)
    s_file = whole.path_id[s_first]
    so = np.lexsort((s_first, s_open, s_file))
    return (s_file[so], whole.rank[s_first][so], s_open[so], s_close[so],
            s_put[so], s_first[so], s_write[so])


def _object_conflict_pairs(shared: _Shared):
    """Whole-object conflicting session pairs of every file.

    Returns ``(first_row, second_row, waw, same)`` arrays in report
    order: exemplar rows of ``tables.whole`` (the PUT's first write and
    the second session's first write/access), plus kind and scope
    masks.
    """
    whole = shared.tables.whole
    s_file, s_rank, s_open, s_close, s_put, s_first, s_write = \
        _object_sessions(shared)
    # ordered pairs (i, j), i before j in session order, i a PUT;
    # cleared only when the PUT's close precedes the second's open.
    # Opens ascend within a file, so a PUT's pairs are the run of later
    # sessions of its file that open at or before its close: one search
    # by (file, open rank), which fits an int64 exactly
    puts = np.flatnonzero(s_put)
    opens = np.sort(s_open)
    span = opens.size + 1
    key = s_file * span + np.searchsorted(opens, s_open)
    runs = np.searchsorted(
        key, s_file[puts] * span
        + np.searchsorted(opens, s_close[puts], side="right") - 1,
        side="right") - puts - 1
    i_idx = np.repeat(puts, runs)
    j_idx = (i_idx + 1 + np.arange(i_idx.size)
             - np.repeat(np.cumsum(runs) - runs, runs))
    waw = s_put[j_idx]
    same = s_rank[i_idx] == s_rank[j_idx]
    first_row = s_write[i_idx]
    second_row = np.where(waw, s_write[j_idx], s_first[j_idx])
    # report order: by file, then exemplar times, like the byte-level
    # detector
    t = whole.tstart
    o = np.lexsort((t[second_row], t[first_row], s_file[i_idx]))
    return first_row[o], second_row[o], waw[o], same[o]


def detect_conflicts(vis: VisibilityIndex, tables: dict[str, AccessTable],
                     semantics: Semantics, *,
                     shared: dict | None = None) -> ConflictSet:
    """Run conflict detection over every file of a trace at once.

    Every conflicting pair is kept.  ``shared`` is a dict that the calls
    for one trace's ``tables`` and ``vis`` share, filled on first use:
    given one, the byte-level models share one overlap sweep and every
    model the timelines.  ``tables`` is best the
    :class:`~repro.core.records.FileTables` of the trace; any other dict
    of tables is first read into one.
    """
    tables = FileTables.of(tables)
    if shared is None:
        shared = {}
    work = shared.get("work")
    if work is None or work.tables is not tables:
        work = shared["work"] = _Shared(tables, vis)
    if semantics is Semantics.OBJECT:
        first, second, waw, same = _object_conflict_pairs(work)
    elif semantics is Semantics.STRONG:
        first, second, waw, same = _NO_ROWS, _NO_ROWS, _NO_FLAGS, _NO_FLAGS
    else:
        first, second, waw, same = work.candidates
        if semantics is not Semantics.EVENTUAL and first.size:
            keep = ~_cleared(work, first, second, semantics)
            first, second, waw, same = (first[keep], second[keep],
                                        waw[keep], same[keep])
    file = tables.whole.path_id[first]
    bounds = run_bounds(file)
    lo = tables.bounds[file]
    first, second = first - lo, second - lo
    paths = tables.whole.paths
    return ConflictSet(semantics, (
        FileConflicts(tables[paths[file[a]]], first[a:b], second[a:b],
                      waw[a:b], same[a:b])
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())),
        counts=_cell_counts(waw, same))


def count_conflicts(vis: VisibilityIndex, tables: dict[str, AccessTable],
                    semantics: Semantics) -> dict[str, int]:
    """Whole-trace conflict counts by class, without pair objects.

    Returns ``{"WAW-S": n, "WAW-D": n, "RAW-S": n, "RAW-D": n}``.
    """
    return detect_conflicts(vis, tables, semantics).counts


def count_conflicts_columnar(ct, semantics: Semantics,
                             tables: dict[str, AccessTable] | None = None,
                             ) -> dict[str, int]:
    """Whole-trace conflict counts from a columnar trace.

    Columnar offset reconstruction and visibility timelines feed
    :func:`count_conflicts`, with no per-op objects anywhere.
    ``tables`` lets callers reuse an already-reconstructed table set.
    """
    from repro.core.offsets import reconstruct_tables_columnar

    if tables is None:
        tables = reconstruct_tables_columnar(ct)
    return count_conflicts(VisibilityIndex(ct.to_trace()), tables,
                           semantics)
