"""Overlap detection — the paper's Algorithm 1 and the rank-pair table.

Input is an :class:`~repro.core.records.AccessTable` (one file).  The
sweep sorts extents by start offset; for each record, candidates that can
still overlap are exactly the following records whose start lies before
this record's stop — found in one ``searchsorted``, so the cost is
``O(n log n + P)`` for ``P`` overlapping pairs (the paper notes the same
"linear in practice, quadratic worst case" behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.core.records import AccessTable


def find_overlaps(table: AccessTable) -> np.ndarray:
    """All overlapping pairs, as an ``(P, 2)`` array of row indices.

    Pair rows are indices into the table's (time-sorted) arrays, ordered
    so that ``pair[0]``'s start offset <= ``pair[1]``'s.  Self pairs are
    excluded; every unordered pair appears once.
    """
    n = len(table)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    order = np.argsort(table.offset, kind="stable")
    starts = table.offset[order]
    stops = table.stop[order]
    # With starts sorted, extent i overlaps a later extent j exactly
    # when starts[j] < stops[i] (half-open extents), so the partners of
    # i are the contiguous run (i, hi[i]) where hi[i] is the first
    # index whose start is >= stops[i].
    hi = np.searchsorted(starts, stops, side="left")
    counts = np.maximum(hi - np.arange(n) - 1, 0)
    total = int(np.sum(counts))
    if not total:
        return np.empty((0, 2), dtype=np.int64)
    a = np.repeat(np.arange(n), counts)
    # b is the concatenation of arange(i+1, hi[i]) for every i — built
    # as a segmented arange: element k of segment i is (i+1) + k, and k
    # is the element's distance from its segment's start in the flat
    # output.
    seg_first = np.cumsum(counts) - counts
    b = a + 1 + np.arange(total) - np.repeat(seg_first, counts)
    return np.stack([order[a], order[b]], axis=1)


def overlap_rank_matrix(table: AccessTable, nranks: int) -> np.ndarray:
    """The paper's table ``P[r_i, r_j]``: which rank pairs have overlaps."""
    mat = np.zeros((nranks, nranks), dtype=np.int64)
    pairs = find_overlaps(table)
    if len(pairs):
        ri = table.rank[pairs[:, 0]]
        rj = table.rank[pairs[:, 1]]
        np.add.at(mat, (ri, rj), 1)
        np.add.at(mat, (rj, ri), 1)
    return mat
