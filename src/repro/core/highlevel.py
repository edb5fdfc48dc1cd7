"""High-level X–Y sharing-pattern classification (paper Table 3).

``X`` is how many processes perform *data* I/O on a file group (N = all
ranks, M = a proper subset larger than one, 1 = a single rank); ``Y`` is
the number of files accessed per I/O phase under the same convention.
Groups are file families — files of one output kind, e.g. all checkpoint
files of a run — identified here by their directory (application proxies
put each output family in its own directory, matching how real runs
separate plot files, checkpoints, and scratch).

Two refinements match the paper's conventions:

* library metadata is excluded before counting writers (the paper
  classifies FLASH-fbs as M-1 even though ~30 extra ranks write small
  HDF5 metadata — only the six aggregators move data);
* a *series* of files that all share one writer set (checkpoint
  generations) counts as ``Y = 1``: each I/O phase accesses one shared
  file.  Distinct writer sets per file (rank-private or group files)
  count the files.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass

import numpy as np

from repro.core.patterns import (
    AccessPattern,
    classify_gap_sequences,
    data_rows,
    majority,
)
from repro.core.records import AccessTable, FileTables, run_bounds


@dataclass(frozen=True)
class SharingPattern:
    """One file group's Table 3 characterization."""

    group: str                # directory common to the group's files
    nfiles: int
    files_per_phase: int      # Y before cardinality bucketing
    writer_ranks: frozenset[int]
    reader_ranks: frozenset[int]
    bytes_written: int
    bytes_read: int
    pattern: AccessPattern

    def xy(self, nranks: int) -> str:
        """The paper's X-Y notation, e.g. ``"N-1"`` or ``"M-M"``."""
        ranks = self.writer_ranks or self.reader_ranks
        return f"{_cardinality(len(ranks), nranks)}-" \
               f"{_cardinality(self.files_per_phase, nranks)}"


def _cardinality(count: int, nranks: int) -> str:
    if count >= nranks:
        return "N"
    if count <= 1:
        return "1"
    return "M"


def classify_sharing(tables: dict[str, AccessTable],
                     nranks: int) -> list[SharingPattern]:
    """Group the per-file tables by directory and characterize each group.

    Groups are returned most-bytes-written first, so index 0 is the run's
    *primary* output pattern (the Table 3 row entry).  One pass over the
    trace-wide table finds every group's ranks and byte totals; only the
    pattern vote visits each (rank, file) sequence in turn.
    """
    tables = FileTables.of(tables)
    whole = tables.whole
    dirs = [posixpath.dirname(path) for path in whole.paths]
    groups = sorted(set(dirs))
    place = {group: g for g, group in enumerate(groups)}
    group_of = np.array([place[d] for d in dirs], dtype=np.int64)
    group = group_of[whole.path_id]
    nfiles = np.bincount(group_of, minlength=len(groups))
    sizes = whole.stop - whole.offset
    heads = tables.bounds[:-1]
    written = np.zeros(len(groups), dtype=np.int64)
    read = np.zeros(len(groups), dtype=np.int64)
    if sizes.size:
        np.add.at(written, group_of, np.add.reduceat(
            np.where(whole.is_write, sizes, 0), heads))
        np.add.at(read, group_of, np.add.reduceat(
            np.where(whole.is_write, 0, sizes), heads))
    data = data_rows(tables)
    # the (rank, file) sequences: runs of one key in rank order
    rows = tables.rank_order
    starts = run_bounds(tables.row_key[rows])[:-1]
    seq_group, seq_rank = group[rows[starts]], whole.rank[rows[starts]]

    def ranks(mask: np.ndarray) -> tuple[list[frozenset[int]], np.ndarray]:
        """Each group's ranks among the rows ``mask`` selects, and how
        many (rank, file) sequences of the group hold such rows."""
        has = (np.logical_or.reduceat(mask[rows], starts) if starts.size
               else np.zeros(0, dtype=bool))
        g, r = seq_group[has], seq_rank[has]
        _, first = np.unique(tables.rank_key(g, r), return_index=True)
        cut = np.searchsorted(g[first], np.arange(len(groups) + 1)).tolist()
        r = r[first]
        return ([frozenset(r[a:b].tolist()) for a, b in zip(cut, cut[1:])],
                np.bincount(g, minlength=len(groups)))

    writers, _ = ranks(data & whole.is_write)
    readers, _ = ranks(data & ~whole.is_write)
    data_ranks, nseqs = ranks(data)
    # the vote: each group's data writes, or its data reads when it has
    # no writer, sequence by sequence in first-access order
    writes_only = np.array([bool(w) for w in writers], dtype=bool)
    sel = rows[(data & (whole.is_write | ~writes_only[group]))[rows]]
    bounds = run_bounds(tables.row_key[sel])
    labels = classify_gap_sequences(whole.offset[sel], whole.stop[sel],
                                    bounds)
    lengths = np.diff(bounds).tolist()
    first = sel[bounds[:-1]]
    order = np.lexsort((whole.rid[first], whole.tstart[first],
                        group[first]))
    cut = np.searchsorted(group[first][order],
                          np.arange(len(groups) + 1)).tolist()
    order = order.tolist()
    votes = [order[a:b] for a, b in zip(cut, cut[1:])]
    out = [SharingPattern(
        group=name, nfiles=int(nfiles[g]),
        # Y: a series of files that all share one data-rank set
        # (checkpoint generations) is one file per phase; every file
        # holds all of the group's ranks exactly when the sequences
        # number files x ranks
        files_per_phase=(1 if nseqs[g] == nfiles[g] * len(data_ranks[g])
                         else int(nfiles[g])),
        writer_ranks=writers[g], reader_ranks=readers[g],
        bytes_written=int(written[g]), bytes_read=int(read[g]),
        pattern=majority([labels[s] for s in votes[g]],
                         [lengths[s] for s in votes[g]]))
        for g, name in enumerate(groups)]
    out.sort(key=lambda g: (g.bytes_written, g.bytes_read), reverse=True)
    return out
