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
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.patterns import AccessPattern, classify_files, data_mask
from repro.core.records import AccessTable


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
    *primary* output pattern (the Table 3 row entry).
    """
    by_group: dict[str, list[AccessTable]] = defaultdict(list)
    for path, table in tables.items():
        if len(table):
            by_group[posixpath.dirname(path)].append(table)
    out: list[SharingPattern] = []
    for group, members in sorted(by_group.items()):
        masks = [data_mask(t) for t in members]
        writers = frozenset(np.concatenate(
            [t.rank[m & t.is_write] for t, m in zip(members, masks)]
        ).tolist())
        readers = frozenset(np.concatenate(
            [t.rank[m & ~t.is_write] for t, m in zip(members, masks)]
        ).tolist())
        # Y: a series of files that all share one data-rank set
        # (checkpoint generations) is one file per phase
        rank_sets = {frozenset(t.rank[m].tolist())
                     for t, m in zip(members, masks)}
        out.append(SharingPattern(
            group=group, nfiles=len(members),
            files_per_phase=1 if len(rank_sets) == 1 else len(members),
            writer_ranks=writers, reader_ranks=readers,
            bytes_written=sum(t.bytes_written for t in members),
            bytes_read=sum(t.bytes_read for t in members),
            pattern=classify_files(members, masks,
                                   writes_only=bool(writers))))
    out.sort(key=lambda g: (g.bytes_written, g.bytes_read), reverse=True)
    return out
