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
from repro.core.records import AccessRecord, AccessTable
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
        rows, index = np.unique(np.r_[self.first, self.second],
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
    path order.  Counts, flags, paths and the verdicts of
    :mod:`repro.core.semantics` read the arrays; :class:`Conflict` and
    :class:`AccessRecord` objects are built only when the set is
    iterated.
    """

    def __init__(self, semantics: Semantics,
                 files: Iterable[FileConflicts] = ()):
        self.semantics = semantics
        self.files = [f for f in files if len(f.first)]
        counts = np.zeros(len(LABELS), dtype=np.int64)
        for f in self.files:
            counts += np.bincount(2 * ~f.waw + ~f.same,
                                  minlength=len(LABELS))
        self._counts = tuple(counts.tolist())

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


#: the event families of the §5.2 visibility conditions; close is a
#: commit too, so closes appear in both the close and commit families
_FAMILIES = (("open", OPEN_OPS), ("close", CLOSE_OPS),
             ("commit", COMMIT_OPS))
_NO_TIMES = np.empty(0, dtype=np.float64)
_NO_ROWS = np.empty(0, dtype=np.int64)


class VisibilityIndex:
    """Sorted POSIX open, close and commit times per (family, rank, path).

    Conditions 3 and 4 of §5.2 become ``searchsorted`` calls against
    these timelines (the paper suggests binary search), evaluated over
    whole batches of candidate pairs at once.  One index serves every
    semantics model of a run.  It reads the trace's columns: per family
    one mask, one lexsort by (path, rank, time) and two group splits,
    one per (rank, path) and one per path.
    """

    def __init__(self, trace: Trace):
        ct = trace.columnar
        self._times: dict[tuple[str, int, str], np.ndarray] = {}
        self._by_path: dict[tuple[str, str],
                            tuple[np.ndarray, np.ndarray]] = {}
        c = ct.columns
        base = ct.posix_mask() & (c["path_id"] >= 0)
        for family, ops in _FAMILIES:
            rows = np.flatnonzero(base & ct.func_lookup(ops)[c["func_id"]])
            if not rows.size:
                continue
            rank = c["rank"][rows]
            pid = c["path_id"][rows]
            t = c["tstart"][rows]
            order = np.lexsort((t, rank, pid))
            rank, pid, t = rank[order], pid[order], t[order]
            new_path = np.r_[True, pid[1:] != pid[:-1]]
            starts = np.flatnonzero(new_path
                                    | np.r_[True, rank[1:] != rank[:-1]])
            stops = np.r_[starts[1:], t.size]
            for s, e in zip(starts.tolist(), stops.tolist()):
                self._times[(family, int(rank[s]), ct.paths[pid[s]])] = \
                    np.ascontiguousarray(t[s:e])
            starts = np.flatnonzero(new_path)
            stops = np.r_[starts[1:], t.size]
            for s, e in zip(starts.tolist(), stops.tolist()):
                self._by_path[(family, ct.paths[pid[s]])] = (rank[s:e],
                                                              t[s:e])

    def times(self, family: str, rank: int, path: str) -> np.ndarray:
        """Sorted times of one rank's events of one family on a path.

        ``family`` is ``"open"``, ``"close"`` or ``"commit"``.
        """
        return self._times.get((family, rank, path), _NO_TIMES)

    def path_times(self, family: str, path: str
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Every rank's events of one family on a path, as ``(rank,
        time)`` arrays sorted by rank, then time."""
        return self._by_path.get((family, path), (_NO_ROWS, _NO_TIMES))


def _object_sessions(table: AccessTable, vis: VisibilityIndex):
    """Coalesce a file's accesses into whole-object PUT/GET sessions.

    A session is one ``(rank, open..close)`` window: every access is
    assigned to the last open at-or-before it by its rank, and the
    session's close is the first close after its latest member access
    (``inf`` when the window never closes — an unpublished PUT).
    Accesses with no preceding open fall into one catch-all session per
    rank, which is conservative: it can only merge sessions, never
    invent a clearing close/open edge.

    One stable sort by ``(rank, time)`` merges the accesses with every
    rank's opens and closes of the file; a rank's opens and closes sort
    before its accesses at the same time.  Each access then takes its
    rank's last open before it and first close after it in that order.

    Returns parallel per-session arrays, sorted by (open time, first
    access time, first row): ``rank``, ``open_t``, ``close_t``, ``put``
    (has at least one write), ``first_row`` (earliest access),
    ``write_row`` (earliest write, -1 for GET sessions).
    """
    n = len(table)
    o_rank, o_t = vis.path_times("open", table.path)
    c_rank, c_t = vis.path_times("close", table.path)
    opens, events = len(o_t), len(o_t) + len(c_t)
    rank = np.concatenate((o_rank, c_rank, table.rank))
    t = np.concatenate((o_t, c_t, table.tstart))
    order = np.lexsort((np.arange(t.size) >= events, t, rank))
    # a sentinel slot of no rank at the end: "no open before" (-1) and
    # "no close after" (order.size) both land on it
    rank = np.concatenate((rank[order], [-1]))
    t = np.concatenate((t[order], [np.nan]))
    pos = np.arange(order.size)
    last_open = np.maximum.accumulate(np.where(order < opens, pos, -1))
    next_close = np.minimum.accumulate(np.where(
        (order >= opens) & (order < events), pos, order.size)[::-1])[::-1]
    # the accesses in (rank, row) order: rows are (tstart, rid)-sorted,
    # so a rank's open and close times only grow along its rows
    at = np.flatnonzero(order >= events)
    rows = order[at] - events
    g_rank = rank[at]
    lo, hi = last_open[at], next_close[at]
    g_open = np.where(rank[lo] == g_rank, t[lo], -np.inf)
    g_close = np.where(rank[hi] == g_rank, t[hi], np.inf)
    # element comparison, not np.diff: open_t may be -inf (no open),
    # and inf - inf is nan, which would split the catch-all session
    starts = np.concatenate(([0], 1 + np.flatnonzero(
        (g_rank[1:] != g_rank[:-1]) | (g_open[1:] != g_open[:-1]))))
    stops = np.concatenate((starts[1:], [n]))
    s_rank = g_rank[starts]
    s_open = g_open[starts]
    # a session publishes at the first close after its *last* member
    # access, and its first row is its earliest access
    s_close = g_close[stops - 1]
    s_first = rows[starts]
    # earliest write row of each session: its first write in row order
    writes = np.concatenate((np.flatnonzero(table.is_write[rows]), [n]))
    wi = writes[np.searchsorted(writes, starts)]
    s_put = wi < stops
    s_write = np.where(s_put, rows[np.minimum(wi, n - 1)], -1)
    # deterministic session order: open time, then first access
    so = np.lexsort((s_first, table.tstart[s_first], s_open))
    return (s_rank[so], s_open[so], s_close[so], s_put[so],
            s_first[so], s_write[so])


def _object_conflict_pairs(table: AccessTable, vis: VisibilityIndex):
    """Whole-object conflicting session pairs.

    Returns ``(first_row, second_row, waw, same)`` arrays: exemplar
    row indices into ``table`` (the PUT's first write and the second
    session's first write/access), plus kind and scope masks.
    """
    empty = (np.empty(0, np.int64),) * 2 + (np.empty(0, bool),) * 2
    if not len(table):
        return empty
    s_rank, s_open, s_close, s_put, s_first, s_write = \
        _object_sessions(table, vis)
    # ordered pairs (i, j), i before j in session order, i a PUT;
    # cleared only when the PUT's close precedes the second's open.
    # Opens ascend in session order, so a PUT's pairs are the run of
    # later sessions that open at or before its close
    puts = np.flatnonzero(s_put)
    runs = np.searchsorted(s_open, s_close[puts], side="right") - puts - 1
    i_idx = np.repeat(puts, runs)
    j_idx = (i_idx + 1 + np.arange(i_idx.size)
             - np.repeat(np.cumsum(runs) - runs, runs))
    waw = s_put[j_idx]
    same = s_rank[i_idx] == s_rank[j_idx]
    first_row = s_write[i_idx]
    second_row = np.where(waw, s_write[j_idx], s_first[j_idx])
    # report order: by exemplar times, like the byte-level detector
    t = table.tstart
    o = np.lexsort((t[second_row], t[first_row]))
    return first_row[o], second_row[o], waw[o], same[o]


def _actual_conflict_mask(table: AccessTable, first: np.ndarray,
                          second: np.ndarray, vis: VisibilityIndex,
                          semantics: Semantics) -> np.ndarray:
    """Vectorized §5.2 conditions 3/4 (``COMMIT``/``SESSION``) over a
    batch of candidate pairs, given as row arrays.

    Pairs are grouped by the ranks involved so each group's condition is
    one or two ``searchsorted`` calls over the rank's event timeline —
    the array-at-a-time formulation of the paper's binary-search idea.
    """
    n = len(first)
    t = table.tstart
    rank = table.rank
    t1 = t[first]
    t2 = t[second]
    r1 = rank[first]
    r2 = rank[second]
    conflict = np.ones(n, dtype=bool)
    if semantics is Semantics.COMMIT:
        for writer in np.unique(r1):
            sel = r1 == writer
            commits = vis.times("commit", int(writer), table.path)
            if commits.size == 0:
                continue  # no commits: all selected pairs conflict
            idx = np.searchsorted(commits, t1[sel], side="right")
            has_commit = (idx < commits.size) & \
                (commits[np.minimum(idx, commits.size - 1)] < t2[sel])
            conflict[np.flatnonzero(sel)[has_commit]] = False
        return conflict
    # session: exists close by r1 at tc and open by r2 at to with
    # t1 < tc < to < t2
    tc = np.full(n, np.inf)
    for writer in np.unique(r1):
        sel = r1 == writer
        closes = vis.times("close", int(writer), table.path)
        if closes.size == 0:
            continue
        idx = np.searchsorted(closes, t1[sel], side="right")
        found = idx < closes.size
        vals = np.full(sel.sum(), np.inf)
        vals[found] = closes[np.minimum(idx, closes.size - 1)][found]
        tc[sel] = vals
    for reader in np.unique(r2):
        sel = (r2 == reader) & np.isfinite(tc) & (tc < t2)
        if not np.any(sel):
            continue
        opens = vis.times("open", int(reader), table.path)
        if opens.size == 0:
            continue
        idx = np.searchsorted(opens, tc[sel], side="right")
        found = idx < opens.size
        to = np.full(sel.sum(), np.inf)
        to[found] = opens[np.minimum(idx, opens.size - 1)][found]
        cleared = to < t2[sel]
        conflict[np.flatnonzero(sel)[cleared]] = False
    return conflict


#: the models whose conflicts are overlapping byte pairs
_PAIRWISE = (Semantics.COMMIT, Semantics.SESSION, Semantics.EVENTUAL)
_NO_FLAGS = np.empty(0, dtype=bool)


def candidate_pairs(table: AccessTable) -> FileConflicts:
    """One file's potential conflicts, from one overlap sweep.

    These are the overlapping pairs whose earlier access is a write.
    Each pair is ordered by start time, and a tie keeps the lower
    offset (then the earlier row) first.  The pairs come in report
    order: by the first access's start time, then the second's.  Every
    byte-level model filters these same pairs.
    """
    pairs = find_overlaps(table)
    t = table.tstart
    swap = t[pairs[:, 0]] > t[pairs[:, 1]]
    pairs[swap] = pairs[swap][:, ::-1]
    pairs = pairs[table.is_write[pairs[:, 0]]]
    # a stable sort, so filtering the sorted pairs later keeps the
    # order a sort after filtering would give
    pairs = pairs[np.lexsort((t[pairs[:, 1]], t[pairs[:, 0]]))]
    first, second = pairs.T.copy()
    return FileConflicts(table, first, second, table.is_write[second],
                         table.rank[first] == table.rank[second])


def classify_conflicts(table: AccessTable, vis: VisibilityIndex,
                       semantics: Semantics,
                       candidates: FileConflicts | None = None,
                       ) -> FileConflicts:
    """Every actual conflict of one file under ``semantics``.

    A byte-level model keeps the :func:`candidate_pairs` its condition
    does not clear; pass ``candidates`` to reuse one sweep.  A file
    without candidates skips the timeline searches.  Under ``OBJECT``
    pairing is whole-object (session granularity) and the rows are
    exemplars.
    """
    if semantics is Semantics.OBJECT:
        return FileConflicts(table, *_object_conflict_pairs(table, vis))
    if semantics is Semantics.STRONG:
        return FileConflicts(table, _NO_ROWS, _NO_ROWS, _NO_FLAGS,
                             _NO_FLAGS)
    if candidates is None:
        candidates = candidate_pairs(table)
    if semantics is Semantics.EVENTUAL or not len(candidates.first):
        return candidates
    return candidates.select(_actual_conflict_mask(
        table, candidates.first, candidates.second, vis, semantics))


def detect_conflicts(vis: VisibilityIndex, tables: dict[str, AccessTable],
                     semantics: Semantics,
                     max_conflicts_per_file: int | None = None, *,
                     candidates: dict[str, FileConflicts] | None = None,
                     ) -> ConflictSet:
    """Run conflict detection over every file of a trace.

    Keeps at most ``max_conflicts_per_file`` conflicts per file, the
    earliest first.  ``candidates`` holds each file's
    :func:`candidate_pairs` by path and is filled on first use, so the
    byte-level models given one dict share one sweep per file.
    """
    if candidates is None:
        candidates = {}
    keep = slice(max_conflicts_per_file)
    files = []
    for path in sorted(tables):
        table = tables[path]
        found = None
        if semantics in _PAIRWISE:
            found = candidates.get(path)
            if found is None:
                found = candidates[path] = candidate_pairs(table)
        files.append(classify_conflicts(table, vis, semantics,
                                        found).select(keep))
    return ConflictSet(semantics, files)


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
