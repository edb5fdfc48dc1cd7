"""Reference oracles for the analysis stages.

The library keeps one columnar implementation per stage; the slow,
obviously-correct forms live here, and the property tests compare the
two on random inputs:

* :func:`reconstruct_offsets` — the §5.1 offset replay over
  :class:`~repro.tracer.events.TraceRecord` objects, one record at a
  time;
* :class:`RecordVisibility` — the open/close/commit timelines gathered
  record by record;
* :func:`find_overlaps_bruteforce` — the O(n²) overlap detector
  (Algorithm 1's specification);
* :func:`reference_conflicts` — the per-pair §5.2 predicate
  (:func:`is_actual_conflict`), answered by binary search against the
  :class:`~repro.core.conflicts.VisibilityIndex` timelines;
* :func:`object_sessions` and :func:`object_conflict_pairs` — the
  object model's sessions found rank by rank (a whole-file mask and two
  ``searchsorted`` calls per rank), paired over every session pair;
* :func:`file_conflicts` — one file's conflicts from its own overlap
  sweep and, for commit and session, :func:`actual_conflict_mask`: the
  conditions grouped by rank, one ``searchsorted`` per rank's timeline
  (the per-file form the trace-wide detector replaced);
* :func:`detect_conflicts_objects` — the detector that builds every
  pair as a :class:`~repro.core.conflicts.Conflict` in a
  :class:`ReferenceConflictSet`, file by file with
  :func:`file_conflicts`, a fresh overlap sweep per model;
* the list-based pattern and sharing classifiers
  (:func:`local_pattern_mix`, :func:`global_pattern_mix`,
  :func:`classify_sharing` and their helpers), which bucket and sort
  :class:`~repro.core.records.AccessRecord` lists instead of reading
  table columns;
* :class:`ReferenceHappensBefore` — the §5.2 happens-before graph of
  entry/exit nodes, ordered with :mod:`graphlib` and answered by one
  nranks-wide vector clock per node.
"""

from __future__ import annotations

import posixpath
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

import numpy as np

from repro.core.conflicts import (
    Conflict,
    ConflictKind,
    ConflictScope,
    ConflictSet,
    FileConflicts,
    VisibilityIndex,
)
from repro.core.overlaps import find_overlaps
from repro.errors import AnalysisError, TraceError
from repro.posix import flags as F
from repro.tracer.events import (
    CLOSE_OPS,
    COMMIT_OPS,
    DATA_OPS,
    Layer,
    MPIEvent,
    OPEN_OPS,
    READ_OPS,
    SEEK_OPS,
    TraceRecord,
)
from repro.core.highlevel import SharingPattern
from repro.core.patterns import (
    AccessPattern,
    TransitionMix,
    classify_gap_sequence,
    transition_mix,
)
from repro.core.records import AccessRecord, AccessTable
from repro.core.semantics import Semantics
from repro.tracer.trace import Trace

# -- §5.1 offset replay over record objects ----------------------------------


@dataclass
class _OfdState:
    """Tracked open-file-description state (mirror of the kernel object)."""

    path: str
    offset: int
    append: bool


class _SizeTracker:
    """Global per-path file-size model, replayed in timestamp order."""

    def __init__(self) -> None:
        self._sizes: dict[str, int] = {}

    def seed(self, path: str, size: int) -> None:
        self._sizes.setdefault(path, size)

    def get(self, path: str) -> int:
        return self._sizes.get(path, 0)

    def set(self, path: str, size: int) -> None:
        self._sizes[path] = size

    def grow_to(self, path: str, stop: int) -> None:
        if stop > self._sizes.get(path, 0):
            self._sizes[path] = stop


def reconstruct_offsets(records, *, strict: bool = True
                        ) -> list[AccessRecord]:
    """Resolve every POSIX data record to an absolute byte extent,
    replaying ``records`` in order (the §5.1 specification)."""
    size = _SizeTracker()
    # descriptor tables: (rank, fd) -> shared description state
    ofds: dict[tuple[int, int], _OfdState] = {}
    out: list[AccessRecord] = []
    records = [rec for rec in records if rec.layer == Layer.POSIX]
    # a pwrite/pread of a rank with an open record must name an fd one
    # of the rank's opens (or dups) returned
    named = {(rec.rank, rec.fd if rec.func in OPEN_OPS
              else rec.args.get("newfd"))
             for rec in records if rec.func in OPEN_OPS or rec.func == "dup"}
    openers = {rec.rank for rec in records if rec.func in OPEN_OPS}

    for rec in records:
        func = rec.func
        if func in OPEN_OPS:
            _handle_open(rec, ofds, size)
        elif func in CLOSE_OPS:
            ofds.pop((rec.rank, rec.fd), None)
        elif func == "dup":
            st = ofds.get((rec.rank, rec.fd))
            if st is not None:
                ofds[(rec.rank, int(rec.args["newfd"]))] = st
        elif func in SEEK_OPS:
            _handle_seek(rec, ofds, size, strict)
        elif func in ("truncate",):
            size.set(_require_path(rec), int(rec.args["length"]))
        elif func == "ftruncate":
            st = ofds.get((rec.rank, rec.fd))
            path = st.path if st is not None else rec.path
            if path is not None:
                size.set(path, int(rec.args["length"]))
        elif func in DATA_OPS:
            if (strict and rec.offset is not None and rec.fd is not None
                    and rec.rank in openers
                    and (rec.rank, rec.fd) not in named):
                raise TraceError(
                    f"record {rec.rid} ({rec.func}) uses fd {rec.fd}, "
                    f"which no open of rank {rec.rank} returned")
            acc = _handle_data(rec, ofds, size, strict)
            if acc is not None:
                out.append(acc)
        # all other (metadata) operations do not move offsets
    return out


def _require_path(rec: TraceRecord) -> str:
    if rec.path is None:
        raise TraceError(f"record {rec.rid} ({rec.func}) lacks a path")
    return rec.path


def _handle_open(rec: TraceRecord, ofds: dict[tuple[int, int], _OfdState],
                 size: _SizeTracker) -> None:
    path = _require_path(rec)
    open_flags = int(rec.args.get("flags", 0))
    if "size_at_open" in rec.args:
        size.seed(path, int(rec.args["size_at_open"]))
    if open_flags & F.O_TRUNC and F.writable(open_flags):
        size.set(path, 0)
    ofds[(rec.rank, rec.fd)] = _OfdState(
        path=path, offset=0, append=bool(open_flags & F.O_APPEND))


def _handle_seek(rec: TraceRecord, ofds: dict[tuple[int, int], _OfdState],
                 size: _SizeTracker, strict: bool) -> None:
    st = ofds.get((rec.rank, rec.fd))
    if st is None:
        if strict:
            raise TraceError(
                f"seek on untracked fd {rec.fd} (rank {rec.rank})")
        return
    offset = int(rec.args["offset"])
    whence = int(rec.args["whence"])
    if whence == F.SEEK_SET:
        st.offset = offset
    elif whence == F.SEEK_CUR:
        st.offset += offset
    elif whence == F.SEEK_END:
        st.offset = size.get(st.path) + offset
    else:
        raise TraceError(f"record {rec.rid}: unknown whence {whence}")


def _handle_data(rec: TraceRecord, ofds: dict[tuple[int, int], _OfdState],
                 size: _SizeTracker, strict: bool) -> AccessRecord | None:
    count = int(rec.count or 0)
    is_write = rec.func not in READ_OPS
    explicit = rec.offset is not None  # pread/pwrite carry their offset
    if explicit:
        start = int(rec.offset)
        path = _require_path(rec)
    else:
        st = ofds.get((rec.rank, rec.fd))
        if st is None:
            if strict:
                raise TraceError(
                    f"data op on untracked fd {rec.fd} (rank {rec.rank})")
            return None
        if is_write and st.append:
            st.offset = size.get(st.path)
        start = st.offset
        st.offset = start + count
        path = st.path
    stop = start + count
    if is_write:
        size.grow_to(path, stop)
    if count == 0:
        return None
    return AccessRecord(
        rid=rec.rid, rank=rec.rank, path=path, offset=start, stop=stop,
        is_write=is_write, tstart=rec.tstart, tend=rec.tend,
        fd=rec.fd if rec.fd is not None else -1, func=rec.func,
        issuer=rec.issuer.value)


# -- visibility timelines over record objects ---------------------------------


class RecordVisibility:
    """The :class:`~repro.core.conflicts.VisibilityIndex` timelines,
    gathered record by record; answers the same ``times``,
    ``path_times`` and ``along`` queries."""

    def __init__(self, records):
        times: dict[tuple[str, int, str], list[float]] = {}
        for rec in records:
            if rec.layer != Layer.POSIX or rec.path is None:
                continue
            for family, ops in (("open", OPEN_OPS), ("close", CLOSE_OPS),
                                ("commit", COMMIT_OPS)):
                if rec.func in ops:
                    times.setdefault((family, rec.rank, rec.path),
                                     []).append(rec.tstart)
        self._times = {key: np.sort(np.asarray(ts, dtype=np.float64))
                       for key, ts in times.items()}

    def times(self, family: str, rank: int, path: str) -> np.ndarray:
        return self._times.get((family, rank, path),
                               np.empty(0, dtype=np.float64))

    def path_times(self, family: str, path: str
                   ) -> tuple[np.ndarray, np.ndarray]:
        ranks = sorted(r for f, r, p in self._times
                       if f == family and p == path)
        times = [self.times(family, r, path) for r in ranks]
        return (np.repeat(np.asarray(ranks, dtype=np.int64),
                          [len(ts) for ts in times]),
                np.concatenate(times) if times
                else np.empty(0, dtype=np.float64))

    def along(self, family: str, paths: list[str]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        by_path = [self.path_times(family, path) for path in paths]
        return (np.repeat(np.arange(len(paths), dtype=np.int64),
                          [len(t) for _, t in by_path]),
                np.concatenate([r for r, _ in by_path]
                               or [np.empty(0, dtype=np.int64)]),
                np.concatenate([t for _, t in by_path]
                               or [np.empty(0, dtype=np.float64)]))


# -- overlaps -----------------------------------------------------------------


def find_overlaps_bruteforce(table: AccessTable) -> np.ndarray:
    """Reference :math:`O(n^2)` overlap detector (test oracle)."""
    n = len(table)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if (table.offset[i] < table.stop[j]
                    and table.offset[j] < table.stop[i]):
                out.append((i, j))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(out, dtype=np.int64)


def canonical_pairs(pairs: np.ndarray) -> set[tuple[int, int]]:
    """Order-insensitive set form of a pair array, for comparisons."""
    return {(int(min(a, b)), int(max(a, b))) for a, b in pairs}


# -- §5.2 visibility queries and the per-pair predicate -----------------------


def commit_between(vis: VisibilityIndex, rank: int, path: str,
                   t1: float, t2: float) -> bool:
    """Does ``rank`` commit ``path`` strictly inside ``(t1, t2)``?"""
    times = vis.times("commit", rank, path).tolist()
    i = bisect_right(times, t1)
    return i < len(times) and times[i] < t2


def first_close_after(vis: VisibilityIndex, rank: int, path: str,
                      t: float) -> float:
    times = vis.times("close", rank, path).tolist()
    i = bisect_right(times, t)
    return times[i] if i < len(times) else float("inf")


def open_between(vis: VisibilityIndex, rank: int, path: str,
                 t_lo: float, t_hi: float) -> bool:
    """Does ``rank`` open ``path`` strictly inside ``(t_lo, t_hi)``?"""
    times = vis.times("open", rank, path).tolist()
    i = bisect_right(times, t_lo)
    return i < len(times) and times[i] < t_hi


def session_pair_between(vis: VisibilityIndex, writer: int, reader: int,
                         path: str, t1: float, t2: float) -> bool:
    """Condition 4: close by writer at tc, open by reader at to with
    ``t1 < tc < to < t2``."""
    tc = first_close_after(vis, writer, path, t1)
    if tc >= t2:
        return False
    return open_between(vis, reader, path, tc, t2)


def is_actual_conflict(semantics: Semantics, vis: VisibilityIndex,
                       path: str, first: AccessRecord,
                       second: AccessRecord) -> bool:
    if semantics is Semantics.STRONG:
        return False
    if semantics is Semantics.EVENTUAL:
        return True
    if semantics is Semantics.COMMIT:
        return not commit_between(vis, first.rank, path,
                                  first.tstart, second.tstart)
    # session
    return not session_pair_between(vis, first.rank, second.rank, path,
                                    first.tstart, second.tstart)


def reference_conflicts(vis: VisibilityIndex,
                        tables: dict[str, AccessTable],
                        semantics: Semantics) -> list[Conflict]:
    """Byte-level conflicts pair by pair (not ``OBJECT``, whose
    whole-object sessions have no per-pair form).

    A pair is ordered by start time; a tie goes to the lower offset,
    then to the earlier row, as in the array classifier.
    """
    out: list[Conflict] = []
    for path in sorted(tables):
        table = tables[path]
        for i, j in find_overlaps_bruteforce(table):
            a, b = table.records[int(i)], table.records[int(j)]
            first, second = ((b, a) if (a.tstart, a.offset)
                             > (b.tstart, b.offset) else (a, b))
            if not first.is_write or not is_actual_conflict(
                    semantics, vis, path, first, second):
                continue
            out.append(Conflict(
                path=path,
                kind=ConflictKind.WAW if second.is_write
                else ConflictKind.RAW,
                scope=(ConflictScope.SAME if first.rank == second.rank
                       else ConflictScope.DIFFERENT),
                first=first, second=second))
    return out


# -- the object model's sessions and pairs ----------------------------------


def object_sessions(table: AccessTable, vis):
    """Coalesce a file's accesses into whole-object PUT/GET sessions,
    one rank at a time.

    A session is one ``(rank, open..close)`` window: every access is
    assigned to the last open at-or-before it by its rank, and the
    session's close is the first close after its latest member access
    (``inf`` when the window never closes — an unpublished PUT).
    Accesses with no preceding open fall into one catch-all session per
    rank, which is conservative: it can only merge sessions, never
    invent a clearing close/open edge.

    Returns parallel per-session arrays, sorted by (open time, first
    access time, first row): ``rank``, ``open_t``, ``close_t``, ``put``
    (has at least one write), ``first_row`` (earliest access),
    ``write_row`` (earliest write, -1 for GET sessions).
    """
    n = len(table)
    t = table.tstart
    rank = table.rank
    open_t = np.full(n, -np.inf)
    close_t = np.full(n, np.inf)
    for r in np.unique(rank):
        sel = rank == r
        opens = vis.times("open", int(r), table.path)
        if opens.size:
            oi = np.searchsorted(opens, t[sel], side="right") - 1
            open_t[sel] = np.where(oi >= 0, opens[np.maximum(oi, 0)],
                                   -np.inf)
        closes = vis.times("close", int(r), table.path)
        if closes.size:
            ci = np.searchsorted(closes, t[sel], side="right")
            close_t[sel] = np.where(
                ci < closes.size,
                closes[np.minimum(ci, closes.size - 1)], np.inf)
    # group rows by (rank, open_t); table rows are (tstart, rid)-sorted,
    # so the first row of each group is the session's earliest access
    order = np.lexsort((np.arange(n), open_t, rank))
    g_rank = rank[order]
    g_open = open_t[order]
    # element comparison, not np.diff: open_t may be -inf (no open),
    # and inf - inf is nan, which would split the catch-all session
    new = np.r_[True, (g_rank[1:] != g_rank[:-1])
                | (g_open[1:] != g_open[:-1])]
    sid = np.cumsum(new) - 1          # session id per sorted row
    nsess = int(sid[-1]) + 1 if n else 0
    starts = np.flatnonzero(new)
    s_rank = g_rank[starts]
    s_open = g_open[starts]
    # a session publishes at the first close after its *last* member
    # access — the latest per-row close is the conservative choice
    s_close = np.full(nsess, -np.inf)
    np.maximum.at(s_close, sid, close_t[order])
    # earliest member row and earliest write row of each session
    s_first = np.full(nsess, n, dtype=np.int64)
    np.minimum.at(s_first, sid, order)
    s_write = np.full(nsess, n, dtype=np.int64)
    w = table.is_write[order]
    np.minimum.at(s_write, sid[w], order[w])
    s_put = s_write < n
    s_write = np.where(s_put, s_write, -1)
    # deterministic session order: open time, then first access
    so = np.lexsort((s_first, t[s_first], s_open))
    return (s_rank[so], s_open[so], s_close[so], s_put[so],
            s_first[so], s_write[so])


def object_conflict_pairs(table: AccessTable, vis):
    """Whole-object conflicting session pairs, from every session pair.

    Returns ``(first_row, second_row, waw, same)`` arrays: exemplar
    row indices into ``table`` (the PUT's first write and the second
    session's first write/access), plus kind and scope masks.
    """
    empty = (np.empty(0, np.int64),) * 2 + (np.empty(0, bool),) * 2
    if not len(table):
        return empty
    s_rank, s_open, s_close, s_put, s_first, s_write = \
        object_sessions(table, vis)
    ns = len(s_rank)
    if ns < 2:
        return empty
    # ordered pairs (i, j), i before j in session order, i a PUT;
    # cleared only when the PUT's close precedes the second's open
    i_idx, j_idx = np.triu_indices(ns, k=1)
    keep = s_put[i_idx] & ~(s_close[i_idx] < s_open[j_idx])
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    waw = s_put[j_idx]
    same = s_rank[i_idx] == s_rank[j_idx]
    first_row = s_write[i_idx]
    second_row = np.where(waw, s_write[j_idx], s_first[j_idx])
    # report order: by exemplar times, like the byte-level detector
    t = table.tstart
    o = np.lexsort((t[second_row], t[first_row]))
    return first_row[o], second_row[o], waw[o], same[o]


# -- the object-building conflict detector -----------------------------------


class ReferenceConflictSet:
    """A conflict set as a list of :class:`Conflict` objects, every
    query a pass over the list (the form the array
    :class:`~repro.core.conflicts.ConflictSet` replaced)."""

    def __init__(self, semantics: Semantics, conflicts: list[Conflict]):
        self.semantics = semantics
        self.conflicts = conflicts

    def __len__(self) -> int:
        return len(self.conflicts)

    def __iter__(self):
        return iter(self.conflicts)

    def __bool__(self) -> bool:
        return bool(self.conflicts)

    @property
    def flags(self) -> dict[str, bool]:
        return {f"{kind.value}-{scope.value}": any(
                    c.kind == kind and c.scope == scope
                    for c in self.conflicts)
                for kind in (ConflictKind.WAW, ConflictKind.RAW)
                for scope in (ConflictScope.SAME, ConflictScope.DIFFERENT)}

    @property
    def paths(self) -> list[str]:
        return list(dict.fromkeys(c.path for c in self.conflicts))

    @property
    def cross_process_only(self) -> "ReferenceConflictSet":
        return ReferenceConflictSet(self.semantics, [
            c for c in self.conflicts if c.scope == ConflictScope.DIFFERENT])

    @property
    def cross_process_count(self) -> int:
        return len(self.cross_process_only)


def actual_conflict_mask(table: AccessTable, first: np.ndarray,
                         second: np.ndarray, vis, semantics: Semantics
                         ) -> np.ndarray:
    """§5.2 conditions 3/4 (``COMMIT``/``SESSION``) over one file's
    candidate pairs, given as row arrays.

    Pairs are grouped by the ranks involved so each group's condition is
    one or two ``searchsorted`` calls over the rank's event timeline."""
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


def file_conflicts(table: AccessTable, vis, semantics: Semantics):
    """One file's conflicts as ``(first, second, waw, same)`` arrays:
    a fresh overlap sweep of the file, the model's filter, then the
    report sort."""
    if semantics is Semantics.OBJECT:
        return object_conflict_pairs(table, vis)
    pairs = find_overlaps(table)
    t = table.tstart
    swap = t[pairs[:, 0]] > t[pairs[:, 1]]
    pairs[swap] = pairs[swap][:, ::-1]
    pairs = pairs[table.is_write[pairs[:, 0]]]
    if semantics is Semantics.STRONG:
        pairs = pairs[:0]
    elif semantics is not Semantics.EVENTUAL:
        pairs = pairs[actual_conflict_mask(table, pairs[:, 0], pairs[:, 1],
                                           vis, semantics)]
    pairs = pairs[np.lexsort((t[pairs[:, 1]], t[pairs[:, 0]]))]
    first, second = pairs[:, 0], pairs[:, 1]
    return (first, second, table.is_write[second],
            table.rank[first] == table.rank[second])


def detect_conflicts_objects(vis, tables: dict[str, AccessTable],
                             semantics: Semantics) -> ReferenceConflictSet:
    """Conflict detection with every pair built as an object."""
    out: list[Conflict] = []
    for path in sorted(tables):
        table = tables[path]
        first, second, waw, same = file_conflicts(table, vis, semantics)
        if not len(first):
            continue
        rows, index = np.unique(np.r_[first, second], return_inverse=True)
        records = table.records_at(rows)
        out.extend(
            Conflict(path=path,
                     kind=ConflictKind.WAW if w else ConflictKind.RAW,
                     scope=(ConflictScope.SAME if s
                            else ConflictScope.DIFFERENT),
                     first=records[i], second=records[j])
            for i, j, w, s in zip(index[:len(first)].tolist(),
                                  index[len(first):].tolist(),
                                  waw.tolist(), same.tolist()))
    return ReferenceConflictSet(semantics, out)


def array_conflict_set(semantics: Semantics,
                       conflicts: list[Conflict]) -> ConflictSet:
    """The array :class:`~repro.core.conflicts.ConflictSet` of the given
    conflicts, in their order; each file's accesses form one table."""
    by_path: dict[str, list[Conflict]] = {}
    for c in conflicts:
        by_path.setdefault(c.path, []).append(c)
    files = []
    for path in sorted(by_path):
        group = by_path[path]
        records = [r for c in group for r in (c.first, c.second)]
        # the table sorts its rows by (tstart, rid), stably
        order = np.lexsort(([r.rid for r in records],
                            [r.tstart for r in records]))
        row = np.argsort(order)
        files.append(FileConflicts(
            AccessTable(path, records), row[0::2], row[1::2],
            np.array([c.kind is ConflictKind.WAW for c in group]),
            np.array([c.scope is ConflictScope.SAME for c in group])))
    return ConflictSet(semantics, files)


# -- list-based pattern and sharing classifiers -------------------------------


def _sequences_by_rank(records: list[AccessRecord]
                       ) -> dict[tuple[int, str], list[AccessRecord]]:
    out: dict[tuple[int, str], list[AccessRecord]] = {}
    for r in sorted(records, key=lambda r: (r.tstart, r.rid)):
        out.setdefault((r.rank, r.path), []).append(r)
    return out


def local_pattern_mix(records: list[AccessRecord]) -> TransitionMix:
    """Figure 1(b): transitions within each (rank, file) sequence."""
    total = TransitionMix()
    for seq in _sequences_by_rank(records).values():
        offsets = np.fromiter((r.offset for r in seq), np.int64, len(seq))
        stops = np.fromiter((r.stop for r in seq), np.int64, len(seq))
        total = total + transition_mix(offsets, stops)
    return total


def global_pattern_mix(records: list[AccessRecord]) -> TransitionMix:
    """Figure 1(a): transitions per file with all ranks interleaved."""
    byfile: dict[str, list[AccessRecord]] = {}
    for r in sorted(records, key=lambda r: (r.tstart, r.rid)):
        byfile.setdefault(r.path, []).append(r)
    total = TransitionMix()
    for seq in byfile.values():
        offsets = np.fromiter((r.offset for r in seq), np.int64, len(seq))
        stops = np.fromiter((r.stop for r in seq), np.int64, len(seq))
        total = total + transition_mix(offsets, stops)
    return total


def drop_library_metadata(records: list[AccessRecord]
                          ) -> list[AccessRecord]:
    """The small-metadata exception: when sizes span 8x or more, drop
    accesses at least 8x smaller than the largest."""
    if not records:
        return records
    sizes = np.fromiter((r.nbytes for r in records), np.int64, len(records))
    biggest = int(sizes.max())
    if biggest < 8 * int(sizes.min()):
        return records
    keep = sizes * 8 >= biggest
    return [r for r, k in zip(records, keep) if k]


def filter_metadata_by_file(records: list[AccessRecord]
                            ) -> list[AccessRecord]:
    """Per-file metadata exception, applied across all ranks at once."""
    byfile: dict[str, list[AccessRecord]] = {}
    for r in records:
        byfile.setdefault(r.path, []).append(r)
    out: list[AccessRecord] = []
    for recs in byfile.values():
        out.extend(drop_library_metadata(recs))
    out.sort(key=lambda r: (r.tstart, r.rid))
    return out


def classify_rank_file(records: list[AccessRecord], *,
                       writes_only: bool = True,
                       filter_metadata: bool = True) -> AccessPattern:
    """Classify one (rank, file) sequence for the Table 3 taxonomy."""
    seq = [r for r in records if r.is_write] if writes_only else list(records)
    if filter_metadata:
        seq = drop_library_metadata(seq)
    seq.sort(key=lambda r: (r.tstart, r.rid))
    offsets = np.fromiter((r.offset for r in seq), np.int64, len(seq))
    stops = np.fromiter((r.stop for r in seq), np.int64, len(seq))
    return classify_gap_sequence(offsets, stops)


def classify_file(records: list[AccessRecord], *,
                  writes_only: bool = True,
                  prefiltered: bool = False) -> AccessPattern:
    """Majority (transition-weighted) pattern over a file's writing
    ranks; ``prefiltered`` skips the per-sequence metadata filter."""
    weights: Counter = Counter()
    for (rank, _), seq in _sequences_by_rank(
            [r for r in records
             if (r.is_write or not writes_only)]).items():
        label = classify_rank_file(seq, writes_only=writes_only,
                                   filter_metadata=not prefiltered)
        weights[label] += max(1, len(seq) - 1)
    if not weights:
        return AccessPattern.CONSECUTIVE
    return weights.most_common(1)[0][0]


def classify_sharing(records: list[AccessRecord],
                     nranks: int) -> list[SharingPattern]:
    """Group data accesses by directory and characterize each group,
    most bytes written first."""
    by_group: dict[str, list[AccessRecord]] = defaultdict(list)
    for r in records:
        by_group[posixpath.dirname(r.path)].append(r)
    out: list[SharingPattern] = []
    for group, recs in sorted(by_group.items()):
        data_recs = filter_metadata_by_file(recs)
        paths = {r.path for r in recs}
        writers = frozenset(r.rank for r in data_recs if r.is_write)
        readers = frozenset(r.rank for r in data_recs if not r.is_write)
        written = sum(r.nbytes for r in recs if r.is_write)
        read = sum(r.nbytes for r in recs if not r.is_write)
        pattern = classify_file(data_recs, writes_only=bool(writers),
                                prefiltered=True)
        out.append(SharingPattern(
            group=group, nfiles=len(paths),
            files_per_phase=_files_per_phase(data_recs, paths),
            writer_ranks=writers, reader_ranks=readers,
            bytes_written=written, bytes_read=read, pattern=pattern))
    out.sort(key=lambda g: (g.bytes_written, g.bytes_read), reverse=True)
    return out


def _files_per_phase(data_recs: list[AccessRecord],
                     paths: set[str]) -> int:
    """Y: count one file per phase for same-writer-set file series."""
    sets: dict[str, frozenset[int]] = defaultdict(frozenset)
    for r in data_recs:
        sets[r.path] = sets[r.path] | {r.rank}
    distinct = set(sets.values())
    if len(distinct) == 1 and len(sets) >= 1:
        return 1  # a series of same-pattern files (e.g. checkpoints)
    return len(paths)


# -- happens-before as an explicit graph ---------------------------------------

#: collectives where the root's entry precedes everyone's exit
_ROOT_TO_ALL = {"bcast", "scatter"}
#: collectives where everyone's entry precedes the root's exit
_ALL_TO_ROOT = {"gather", "reduce"}

_IN, _OUT = 0, 1


class ReferenceHappensBefore:
    """Vector-clock index over a run's communication partial order."""

    def __init__(self, trace: Trace):
        self.nranks = trace.nranks
        self.events_by_rank: list[list[MPIEvent]] = [
            [] for _ in range(trace.nranks)]
        for ev in sorted(trace.mpi_events,
                         key=lambda e: (e.rank, e.tstart, e.eid)):
            self.events_by_rank[ev.rank].append(ev)
        self._starts: list[list[float]] = [
            [e.tstart for e in evs] for evs in self.events_by_rank]
        self._ends: list[list[float]] = [
            [e.tend for e in evs] for evs in self.events_by_rank]
        # node position along its rank's program order: entry=2i, exit=2i+1
        self._pos: dict[tuple, int] = {}
        self._rank_of: dict[tuple, int] = {}
        for rank, evs in enumerate(self.events_by_rank):
            for i, ev in enumerate(evs):
                self._pos[(ev.eid, _IN)] = 2 * i
                self._pos[(ev.eid, _OUT)] = 2 * i + 1
                self._rank_of[(ev.eid, _IN)] = rank
                self._rank_of[(ev.eid, _OUT)] = rank
        #: node -> its predecessors in the partial order
        self.graph = self._build_graph()
        self._clocks = self._compute_vector_clocks()

    # -- construction ---------------------------------------------------------

    def _build_graph(self) -> dict[tuple, list[tuple]]:
        preds: dict[tuple, list[tuple]] = {}

        def edge(u: tuple, v: tuple) -> None:
            preds.setdefault(v, []).append(u)

        for evs in self.events_by_rank:
            for i, ev in enumerate(evs):
                edge((ev.eid, _IN), (ev.eid, _OUT))
                if i > 0:
                    edge((evs[i - 1].eid, _OUT), (ev.eid, _IN))
        by_match: dict[tuple, list[MPIEvent]] = {}
        for evs in self.events_by_rank:
            for ev in evs:
                by_match.setdefault(ev.match_key, []).append(ev)
        for key, match in by_match.items():
            kind = match[0].kind
            if kind in ("send", "recv"):
                for s in (e for e in match if e.role == "sender"):
                    for r in (e for e in match if e.role == "receiver"):
                        edge((s.eid, _IN), (r.eid, _OUT))
            elif kind in _ROOT_TO_ALL:
                for root in (e for e in match if e.role == "root"):
                    for e in match:
                        edge((root.eid, _IN), (e.eid, _OUT))
            elif kind in _ALL_TO_ROOT:
                for root in (e for e in match if e.role == "root"):
                    for e in match:
                        edge((e.eid, _IN), (root.eid, _OUT))
            else:  # fully synchronizing
                hub = ("hub", key)
                for e in match:
                    edge((e.eid, _IN), hub)
                    edge(hub, (e.eid, _OUT))
        return preds

    def _compute_vector_clocks(self) -> dict[tuple, np.ndarray]:
        try:
            order = list(TopologicalSorter(self.graph).static_order())
        except CycleError as exc:
            raise self._cycle_error(exc.args[1]) from None
        clocks: dict[tuple, np.ndarray] = {}
        for node in order:
            vc = np.zeros(self.nranks, dtype=np.int64)
            for pred in self.graph.get(node, ()):
                np.maximum(vc, clocks[pred], out=vc)
            rank = self._rank_of.get(node)
            if rank is not None:
                vc[rank] = max(vc[rank], self._pos[node] + 1)
            clocks[node] = vc
        return clocks

    def _cycle_error(self, cycle: list[tuple]) -> AnalysisError:
        """One-line diagnosis naming an MPI event on ``cycle``."""
        eid = next(node[0] for node in cycle if node[0] != "hub")
        ev = next(e for evs in self.events_by_rank for e in evs
                  if e.eid == eid)
        return AnalysisError(
            f"MPI events contradict program order: happens-before "
            f"cycle through rank {ev.rank} {ev.kind} (eid {ev.eid})")

    # -- queries -----------------------------------------------------------------

    def node_ordered(self, x: tuple, y: tuple) -> bool:
        """Does graph node ``x`` precede node ``y`` in the partial order?"""
        rank = self._rank_of[x]
        return bool(self._clocks[y][rank] >= self._pos[x] + 1) and x != y

    def event_ordered(self, ea: MPIEvent, eb: MPIEvent) -> bool:
        """entry(ea) precedes exit(eb) — the relation access ordering needs."""
        return self.node_ordered((ea.eid, _IN), (eb.eid, _OUT)) \
            or (ea.eid == eb.eid)

    def _first_event_at_or_after(self, rank: int,
                                 t: float) -> MPIEvent | None:
        i = bisect_left(self._starts[rank], t)
        evs = self.events_by_rank[rank]
        return evs[i] if i < len(evs) else None

    def _last_event_ending_by(self, rank: int, t: float) -> MPIEvent | None:
        i = bisect_right(self._ends[rank], t) - 1
        evs = self.events_by_rank[rank]
        return evs[i] if i >= 0 else None

    def access_ordered(self, a: AccessRecord, b: AccessRecord) -> bool:
        """Does access ``a`` happen before access ``b``?

        Same rank: program order (local timestamps are exact).  Different
        ranks: there must be a communication chain from an event after
        ``a`` on ``a``'s rank to an event before ``b`` on ``b``'s rank.
        """
        if a.rank == b.rank:
            return a.tstart <= b.tstart
        ea = self._first_event_at_or_after(a.rank, a.tend)
        eb = self._last_event_ending_by(b.rank, b.tstart)
        if ea is None or eb is None:
            return False
        return self.event_ordered(ea, eb)
