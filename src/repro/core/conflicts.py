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
from dataclasses import dataclass, field

import numpy as np

from repro.core.overlaps import find_overlaps
from repro.core.records import AccessRecord, AccessTable
from repro.core.semantics import Semantics
from repro.tracer.events import CLOSE_OPS, COMMIT_OPS, Layer, OPEN_OPS
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


@dataclass
class ConflictSet:
    """All conflicts of a run under one semantics model."""

    semantics: Semantics
    conflicts: list[Conflict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.conflicts)

    def __iter__(self):
        return iter(self.conflicts)

    def __bool__(self) -> bool:
        return bool(self.conflicts)

    def has(self, kind: ConflictKind, scope: ConflictScope) -> bool:
        return any(c.kind == kind and c.scope == scope for c in self.conflicts)

    @property
    def flags(self) -> dict[str, bool]:
        """Table 4 cell flags: ``{"WAW-S": ..., "WAW-D": ..., ...}``."""
        return {
            f"{kind.value}-{scope.value}": self.has(kind, scope)
            for kind in (ConflictKind.WAW, ConflictKind.RAW)
            for scope in (ConflictScope.SAME, ConflictScope.DIFFERENT)
        }

    @property
    def paths(self) -> list[str]:
        seen: dict[str, None] = {}
        for c in self.conflicts:
            seen.setdefault(c.path, None)
        return list(seen)

    def by_path(self) -> dict[str, list[Conflict]]:
        out: dict[str, list[Conflict]] = {}
        for c in self.conflicts:
            out.setdefault(c.path, []).append(c)
        return out

    @property
    def cross_process_only(self) -> "ConflictSet":
        return ConflictSet(self.semantics, [
            c for c in self.conflicts if c.scope == ConflictScope.DIFFERENT])


#: the event families of the §5.2 visibility conditions; close is a
#: commit too, so closes appear in both the close and commit families
_FAMILIES = (("open", OPEN_OPS), ("close", CLOSE_OPS),
             ("commit", COMMIT_OPS))
_NO_TIMES = np.empty(0, dtype=np.float64)


class VisibilityIndex:
    """Sorted POSIX open, close and commit times per (family, rank, path).

    Conditions 3 and 4 of §5.2 become ``searchsorted`` calls against
    these timelines (the paper suggests binary search), evaluated over
    whole batches of candidate pairs at once.  One index serves every
    semantics model of a run.
    """

    def __init__(self, trace: Trace):
        times: dict[tuple[str, int, str], list[float]] = {}
        for rec in trace.records:  # lint: allow-per-op-loop (object path)
            if rec.layer != Layer.POSIX or rec.path is None:
                continue
            for family, ops in _FAMILIES:
                if rec.func in ops:
                    times.setdefault((family, rec.rank, rec.path),
                                     []).append(rec.tstart)
        self._times = {key: np.sort(np.asarray(ts, dtype=np.float64))
                       for key, ts in times.items()}

    @classmethod
    def from_columnar(cls, ct) -> "VisibilityIndex":
        """The same timelines from a columnar trace, no record objects.

        Per family: one mask, one lexsort and one group split.
        """
        vis = cls.__new__(cls)
        vis._times = {}
        c = ct.columns
        base = ct.posix_mask() & (c["path_id"] >= 0)
        for family, ops in _FAMILIES:
            rows = np.flatnonzero(base & ct.func_lookup(ops)[c["func_id"]])
            if not rows.size:
                continue
            rank = c["rank"][rows]
            pid = c["path_id"][rows]
            t = c["tstart"][rows]
            order = np.lexsort((t, pid, rank))
            rank, pid, t = rank[order], pid[order], t[order]
            starts = np.flatnonzero(np.r_[True, (rank[1:] != rank[:-1])
                                          | (pid[1:] != pid[:-1])])
            stops = np.r_[starts[1:], t.size]
            for s, e in zip(starts.tolist(), stops.tolist()):
                vis._times[(family, int(rank[s]), ct.paths[pid[s]])] = \
                    np.ascontiguousarray(t[s:e])
        return vis

    def times(self, family: str, rank: int, path: str) -> np.ndarray:
        """Sorted times of one rank's events of one family on a path.

        ``family`` is ``"open"``, ``"close"`` or ``"commit"``.
        """
        return self._times.get((family, rank, path), _NO_TIMES)


def _object_sessions(table: AccessTable, vis: VisibilityIndex):
    """Coalesce a file's accesses into whole-object PUT/GET sessions.

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


def _actual_conflict_mask(table: AccessTable, pairs: np.ndarray,
                          vis: VisibilityIndex,
                          semantics: Semantics) -> np.ndarray:
    """Vectorized §5.2 conditions 3/4 over a batch of candidate pairs.

    Pairs are grouped by the ranks involved so each group's condition is
    one or two ``searchsorted`` calls over the rank's event timeline —
    the array-at-a-time formulation of the paper's binary-search idea.
    """
    n = len(pairs)
    if semantics is Semantics.STRONG:
        return np.zeros(n, dtype=bool)
    if semantics is Semantics.EVENTUAL:
        return np.ones(n, dtype=bool)
    t = table.tstart
    rank = table.rank
    t1 = t[pairs[:, 0]]
    t2 = t[pairs[:, 1]]
    r1 = rank[pairs[:, 0]]
    r2 = rank[pairs[:, 1]]
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


def classify_conflicts(table: AccessTable, vis: VisibilityIndex,
                       semantics: Semantics):
    """Every actual conflict of one file under ``semantics``, as arrays.

    Returns ``(first_row, second_row, waw, same)``: row indices into
    ``table`` of the earlier access (always a write) and the later one,
    and the WAW-vs-RAW kind and same-process scope masks, ordered by
    the two accesses' start times.  Under ``OBJECT`` semantics pairing
    is whole-object (session granularity) and the rows are exemplars.
    """
    if semantics is Semantics.OBJECT:
        return _object_conflict_pairs(table, vis)
    pairs = find_overlaps(table)
    # order each pair by entry timestamp (t1 < t2)
    t = table.tstart
    swap = t[pairs[:, 0]] > t[pairs[:, 1]]
    pairs[swap] = pairs[swap][:, ::-1]
    # only pairs whose first op is a write can conflict
    pairs = pairs[table.is_write[pairs[:, 0]]]
    pairs = pairs[_actual_conflict_mask(table, pairs, vis, semantics)]
    # deterministic report order: by first access time, then second
    pairs = pairs[np.lexsort((t[pairs[:, 1]], t[pairs[:, 0]]))]
    first, second = pairs[:, 0], pairs[:, 1]
    return (first, second, table.is_write[second],
            table.rank[first] == table.rank[second])


def count_conflicts(vis: VisibilityIndex, tables: dict[str, AccessTable],
                    semantics: Semantics) -> dict[str, int]:
    """Whole-trace conflict counts by class, without pair objects.

    Returns ``{"WAW-S": n, "WAW-D": n, "RAW-S": n, "RAW-D": n}``.
    """
    total = {"WAW-S": 0, "WAW-D": 0, "RAW-S": 0, "RAW-D": 0}
    for path in sorted(tables):
        _, _, waw, same = classify_conflicts(tables[path], vis, semantics)
        total["WAW-S"] += int(np.sum(waw & same))
        total["WAW-D"] += int(np.sum(waw & ~same))
        total["RAW-S"] += int(np.sum(~waw & same))
        total["RAW-D"] += int(np.sum(~waw & ~same))
    return total


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
    return count_conflicts(VisibilityIndex.from_columnar(ct), tables,
                           semantics)


def detect_conflicts(vis: VisibilityIndex, tables: dict[str, AccessTable],
                     semantics: Semantics,
                     max_conflicts_per_file: int | None = None,
                     ) -> ConflictSet:
    """Run conflict detection over every file of a trace.

    Keeps at most ``max_conflicts_per_file`` conflicts per file, the
    earliest first.
    """
    cs = ConflictSet(semantics)
    keep = slice(max_conflicts_per_file)
    for path in sorted(tables):
        table = tables[path]
        first, second, waw, same = (
            a[keep] for a in classify_conflicts(table, vis, semantics))
        if not len(first):
            continue
        records = table.records
        cs.conflicts.extend(
            Conflict(path=path,
                     kind=ConflictKind.WAW if w else ConflictKind.RAW,
                     scope=(ConflictScope.SAME if s
                            else ConflictScope.DIFFERENT),
                     first=records[i], second=records[j])
            for i, j, w, s in zip(first.tolist(), second.tolist(),
                                  waw.tolist(), same.tolist()))
    return cs
