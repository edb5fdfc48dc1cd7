"""Overlap detection — the paper's Algorithm 1 and the rank-pair table.

Input is an :class:`~repro.core.records.AccessTable` (one file) or a
trace-wide table whose rows of one file are contiguous, as
:class:`~repro.core.records.FileTables` keeps them; ``path_id`` tells
the files apart and pairs never join two files.  The sweep sorts extents
by file, then start offset; for each record, candidates that can still
overlap are exactly the following records of its file whose start lies
before this record's stop — found in one ``searchsorted``, so the cost
is ``O(n log n + P)`` for ``P`` overlapping pairs (the paper notes the
same "linear in practice, quadratic worst case" behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.core.records import AccessList, AccessTable, run_bounds

#: the bound on file-shifted extent keys: well inside int64, so a float
#: estimate of the sum of the files' spans cannot hide a wrap
_KEY_LIMIT = float(1 << 62)


def _sweep(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Algorithm 1 over extents keyed so that ``starts[j] < stops[i]``
    exactly when extent ``j`` may overlap ``i``."""
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    stops = stops[order]
    # With starts sorted, extent i overlaps a later extent j exactly
    # when starts[j] < stops[i] (half-open extents), so the partners of
    # i are the contiguous run (i, hi[i]) where hi[i] is the first
    # index whose start is >= stops[i].  That run is empty unless i's
    # stop passes the next start, so only those extents are searched.
    a = np.flatnonzero(stops[:-1] > starts[1:])
    counts = np.searchsorted(starts, stops[a], side="left") - a - 1
    total = int(np.sum(counts))
    if not total:
        return np.empty((0, 2), dtype=np.int64)
    # b is the concatenation of arange(i+1, hi[i]) for every i — built
    # as a segmented arange: element k of segment i is (i+1) + k, and k
    # is the element's distance from its segment's start in the flat
    # output.
    i = np.repeat(a, counts)
    seg_first = np.cumsum(counts) - counts
    b = i + 1 + np.arange(total) - np.repeat(seg_first, counts)
    return np.stack([order[i], order[b]], axis=1)


def find_overlaps(table: AccessList) -> np.ndarray:
    """All overlapping pairs of each file, as row indices.

    The pairs are a ``(P, 2)`` array.  Pair rows are indices into the table's arrays, ordered so that
    ``pair[0]``'s start offset <= ``pair[1]``'s, and grouped by file in
    row order.  Self pairs are excluded; every unordered pair of one
    file appears once.
    """
    n = len(table)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    bounds = run_bounds(table.path_id)
    if bounds.size == 2:
        return _sweep(table.offset, table.stop)
    # shift each file's extents above the previous file's, so one sort
    # orders by (file, offset) and no search runs past its file: file f
    # keys lie in [base_f, base_f + span_f), the next file's above them
    heads = bounds[:-1]
    low = np.minimum.reduceat(table.offset, heads)
    span = np.maximum.reduceat(table.stop, heads) - low + 1
    if (low.min() < 0 or np.any(span <= 0)
            or np.sum(span, dtype=np.float64) >= _KEY_LIMIT):
        # the keys could wrap int64: sweep file by file
        return np.concatenate([
            _sweep(table.offset[lo:hi], table.stop[lo:hi]) + lo
            for lo, hi in zip(heads.tolist(), bounds[1:].tolist())])
    shift = np.repeat(np.cumsum(span) - span - low, np.diff(bounds))
    return _sweep(table.offset + shift, table.stop + shift)


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
