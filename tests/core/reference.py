"""Reference oracles for the analysis stages after offset reconstruction.

The library keeps one array implementation per stage; the slow,
obviously-correct forms live here, and the property tests compare the
two on random inputs:

* :func:`find_overlaps_bruteforce` — the O(n²) overlap detector
  (Algorithm 1's specification);
* :func:`reference_conflicts` — the per-pair §5.2 predicate
  (:func:`is_actual_conflict`), answered by binary search against the
  :class:`~repro.core.conflicts.VisibilityIndex` timelines;
* the list-based pattern and sharing classifiers
  (:func:`local_pattern_mix`, :func:`global_pattern_mix`,
  :func:`classify_sharing` and their helpers), which bucket and sort
  :class:`~repro.core.records.AccessRecord` lists instead of reading
  table columns.
"""

from __future__ import annotations

import posixpath
from bisect import bisect_right
from collections import Counter, defaultdict

import numpy as np

from repro.core.conflicts import (
    Conflict,
    ConflictKind,
    ConflictScope,
    VisibilityIndex,
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
