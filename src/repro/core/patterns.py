"""Access-pattern characterization (paper §4, §6.2, Table 3, Figure 1).

Two granularities:

* **Per-transition mix** (Figure 1): for consecutive accesses in a
  sequence, with ``o`` the next start and ``p`` the previous end:
  ``o == p`` → *consecutive*, ``o > p`` → *monotonic*, ``o < p`` →
  *random*.  Computed locally (per rank per file) and globally (per file,
  all ranks in timestamp order).
* **Sequence classification** (Table 3): a whole per-(rank, file) write
  sequence is labelled consecutive / strided / strided-cyclic /
  monotonic / random from its gap structure.  Library metadata is
  excluded first, matching the paper's "except for a small amount of
  extra metadata" caveat: a file's accesses are dropped when they are
  at least 8× smaller than its largest access (:func:`data_mask`).

Both read the per-file :class:`~repro.core.records.AccessTable`
columns, whose rows are already in ``(tstart, rid)`` order.

Gap rules (gap = next start − previous end, zero-length gaps are the
consecutive case):

* ≥ 90% zero gaps → CONSECUTIVE;
* any backward gap → RANDOM (writes in well-formed output phases move
  forward; backward jumps that survive metadata filtering are real);
* one positive gap value → STRIDED;
* few gap values with the smallest dominant and larger jumps recurring
  periodically (≥ 2 cycles) → STRIDED_CYCLIC — the signature of
  round-interleaved collective buffering (FLASH-fbs, VPIC-IO);
* otherwise MONOTONIC.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.records import AccessTable


class AccessPattern(str, enum.Enum):
    CONSECUTIVE = "consecutive"
    STRIDED = "strided"
    STRIDED_CYCLIC = "strided cyclic"
    MONOTONIC = "monotonic"
    RANDOM = "random"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TransitionMix:
    """Counts of per-transition classes (Figure 1 bars)."""

    consecutive: int = 0
    monotonic: int = 0
    random: int = 0

    @property
    def total(self) -> int:
        return self.consecutive + self.monotonic + self.random

    def fraction(self, which: str) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return getattr(self, which) / total

    def __add__(self, other: "TransitionMix") -> "TransitionMix":
        return TransitionMix(self.consecutive + other.consecutive,
                             self.monotonic + other.monotonic,
                             self.random + other.random)


def _gap_mix(gaps: np.ndarray) -> TransitionMix:
    return TransitionMix(
        consecutive=int(np.sum(gaps == 0)),
        monotonic=int(np.sum(gaps > 0)),
        random=int(np.sum(gaps < 0)),
    )


def transition_mix(offsets: np.ndarray, stops: np.ndarray) -> TransitionMix:
    """Classify each transition of one access sequence (already in order)."""
    return _gap_mix(offsets[1:] - stops[:-1])


def _by_rank(table: AccessTable, rows: np.ndarray) -> np.ndarray:
    """``rows`` regrouped rank by rank, each rank's rows kept in time
    order (a stable sort of the table's time-ordered rows)."""
    return rows[np.argsort(table.rank[rows], kind="stable")]


def local_pattern_mix(tables: dict[str, AccessTable]) -> TransitionMix:
    """Figure 1(b): transitions within each (rank, file) sequence."""
    total = TransitionMix()
    for table in tables.values():
        rows = _by_rank(table, np.arange(len(table)))
        rank = table.rank[rows]
        gaps = table.offset[rows][1:] - table.stop[rows][:-1]
        total = total + _gap_mix(gaps[rank[1:] == rank[:-1]])
    return total


def global_pattern_mix(tables: dict[str, AccessTable]) -> TransitionMix:
    """Figure 1(a): transitions per file with all ranks interleaved."""
    total = TransitionMix()
    for table in tables.values():
        total = total + transition_mix(table.offset, table.stop)
    return total


def data_mask(table: AccessTable) -> np.ndarray:
    """The paper's small-metadata exception as a row mask over one file.

    When a file mixes large data accesses with much smaller
    library-metadata accesses (headers, TOCs, index entries), accesses
    at least 8x smaller than the largest one are metadata; a file whose
    sizes all lie within 8x of each other keeps every access.  The
    threshold anchors on the maximum because metadata operations can
    outnumber the data operations (e.g. HDF5 header pieces at small
    rank counts), which would fool a median.
    """
    sizes = table.stop - table.offset
    return sizes * 8 >= sizes.max(initial=0)


def classify_gap_sequence(offsets: np.ndarray,
                          stops: np.ndarray) -> AccessPattern:
    """Label one ordered access sequence per the Table 3 taxonomy."""
    n = len(offsets)
    if n < 2:
        return AccessPattern.CONSECUTIVE
    gaps = offsets[1:] - stops[:-1]
    n_zero = int(np.sum(gaps == 0))
    if n_zero >= 0.9 * len(gaps):
        return AccessPattern.CONSECUTIVE
    if np.any(gaps < 0):
        return AccessPattern.RANDOM
    positive = gaps[gaps > 0]
    values = Counter(positive.tolist())
    if len(values) == 1:
        return AccessPattern.STRIDED
    if _is_cyclic(gaps, values):
        return AccessPattern.STRIDED_CYCLIC
    dominant = values.most_common(1)[0][1]
    if dominant >= 0.8 * len(positive):
        return AccessPattern.STRIDED
    return AccessPattern.MONOTONIC


#: A cyclic phase must be short (few accesses between phase jumps); long
#: constant-stride runs with occasional dataset-boundary jumps read as
#: plain strided.
_MAX_CYCLE_SPACING = 4


def _is_cyclic(gaps: np.ndarray, values: Counter) -> bool:
    """Short periodic stride runs separated by recurring larger jumps.

    This is the signature of round-interleaved collective buffering: an
    aggregator writes a handful of stripes per I/O phase (gaps equal to
    the stripe interleave, the *most common* gap), then jumps to the next
    phase's region — FLASH-fbs and VPIC-IO in the paper's Table 3.
    Independent strided writers (Chombo, ParaDiS, FLASH-nofbs) produce
    long same-stride runs instead and stay "strided".
    """
    if len(values) > 3:
        return False
    stride, stride_count = values.most_common(1)[0]
    total_positive = sum(values.values())
    if stride_count < 0.5 * total_positive:
        return False
    # positions of the non-dominant (phase-boundary) jumps
    boundary_positions = np.flatnonzero((gaps > 0) & (gaps != stride))
    if len(boundary_positions) < 2:
        return False
    spacing = np.diff(boundary_positions)
    if len(spacing) and not np.all(spacing == spacing[0]):
        return False
    period = int(spacing[0]) if len(spacing) else len(gaps)
    return period <= _MAX_CYCLE_SPACING


def classify_files(tables: list[AccessTable], masks: list[np.ndarray],
                   *, writes_only: bool = True) -> AccessPattern:
    """Majority pattern over the (rank, file) sequences of some tables.

    Each table contributes the rows its mask selects (writes only when
    ``writes_only``), split rank by rank.  Votes are weighted by
    transitions and cast in the order of each sequence's first access,
    so a tie goes to the pattern that appeared first.
    """
    seqs = []
    for table, mask in zip(tables, masks):
        rows = _by_rank(table, np.flatnonzero(
            mask & table.is_write if writes_only else mask))
        if not rows.size:
            continue
        rank = table.rank[rows]
        starts = np.flatnonzero(np.r_[True, rank[1:] != rank[:-1]])
        for seq in np.split(rows, starts[1:]):
            first = (float(table.tstart[seq[0]]), int(table.rid[seq[0]]))
            seqs.append((first, table.offset[seq], table.stop[seq]))
    seqs.sort(key=lambda seq: seq[0])
    weights: Counter = Counter()
    for _, offsets, stops in seqs:
        label = classify_gap_sequence(offsets, stops)
        weights[label] += max(1, len(offsets) - 1)
    if not weights:
        return AccessPattern.CONSECUTIVE
    return weights.most_common(1)[0][0]
