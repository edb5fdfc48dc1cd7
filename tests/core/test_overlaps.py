"""Tests for overlap detection (Algorithm 1) against the brute-force oracle."""

import numpy as np
import pytest

from repro.core.overlaps import find_overlaps, overlap_rank_matrix
from repro.core.records import AccessRecord, AccessTable
from repro.errors import AnalysisError
from repro.tracer.events import Layer, TraceRecord
from repro.core.offsets import reconstruct_offsets
from repro.tracer.trace import Trace
from tests.core.reference import canonical_pairs, find_overlaps_bruteforce


def make_table(extents, path="/f"):
    """extents: list of (rank, offset, stop, is_write)."""
    records = [
        AccessRecord(rid=i, rank=r, path=path, offset=o, stop=s,
                     is_write=w, tstart=float(i), tend=float(i) + 0.5)
        for i, (r, o, s, w) in enumerate(extents)
    ]
    return AccessTable(path, records)


class TestFindOverlaps:
    def test_disjoint_extents_no_pairs(self):
        t = make_table([(0, 0, 10, True), (1, 10, 20, True),
                        (2, 20, 30, True)])
        assert len(find_overlaps(t)) == 0

    def test_simple_overlap(self):
        t = make_table([(0, 0, 10, True), (1, 5, 15, False)])
        pairs = canonical_pairs(find_overlaps(t))
        assert pairs == {(0, 1)}

    def test_containment(self):
        t = make_table([(0, 0, 100, True), (1, 10, 20, True),
                        (2, 30, 40, True)])
        pairs = canonical_pairs(find_overlaps(t))
        assert pairs == {(0, 1), (0, 2)}

    def test_identical_extents(self):
        t = make_table([(0, 5, 10, True), (1, 5, 10, True),
                        (2, 5, 10, True)])
        pairs = canonical_pairs(find_overlaps(t))
        assert pairs == {(0, 1), (0, 2), (1, 2)}

    def test_adjacent_extents_do_not_overlap(self):
        # half-open: [0,10) and [10,20) share no byte (paper: os2 > oe1)
        t = make_table([(0, 0, 10, True), (1, 10, 20, True)])
        assert len(find_overlaps(t)) == 0

    def test_single_record(self):
        t = make_table([(0, 0, 10, True)])
        assert len(find_overlaps(t)) == 0
        assert len(find_overlaps_bruteforce(t)) == 0

    def test_long_extent_spanning_many(self):
        extents = [(0, 0, 1000, True)]
        extents += [(1, i * 10, i * 10 + 5, False) for i in range(1, 50)]
        t = make_table(extents)
        pairs = canonical_pairs(find_overlaps(t))
        assert len(pairs) == 49

    def test_matches_bruteforce_on_dense_case(self):
        rng = np.random.default_rng(12)
        extents = []
        for i in range(120):
            start = int(rng.integers(0, 200))
            length = int(rng.integers(1, 40))
            extents.append((int(rng.integers(0, 4)), start, start + length,
                            bool(rng.integers(0, 2))))
        t = make_table(extents)
        assert canonical_pairs(find_overlaps(t)) == \
            canonical_pairs(find_overlaps_bruteforce(t))


class TestDegenerateExtents:
    """Zero-length and touching ranges: the half-open boundary audit.

    Invariant: zero-length accesses never reach an AccessTable (the
    table rejects them, and offset reconstruction drops zero-count
    records), so both overlap detectors may assume every extent holds
    at least one byte.
    """

    def test_zero_length_extent_rejected_by_table(self):
        rec = AccessRecord(rid=0, rank=0, path="/f", offset=5, stop=5,
                           is_write=True, tstart=0.0, tend=0.1)
        with pytest.raises(AnalysisError):
            AccessTable("/f", [rec])

    def test_inverted_extent_rejected_by_table(self):
        rec = AccessRecord(rid=0, rank=0, path="/f", offset=9, stop=4,
                           is_write=True, tstart=0.0, tend=0.1)
        with pytest.raises(AnalysisError):
            AccessTable("/f", [rec])

    def test_zero_count_records_never_become_accesses(self):
        # a 0-byte pwrite is traced but resolves to no extent at all
        recs = [
            TraceRecord(rid=0, rank=0, layer=Layer.POSIX,
                        issuer=Layer.APP, func="pwrite", tstart=0.0,
                        tend=0.1, path="/f", fd=3, offset=10, count=0),
            TraceRecord(rid=1, rank=0, layer=Layer.POSIX,
                        issuer=Layer.APP, func="pwrite", tstart=0.2,
                        tend=0.3, path="/f", fd=3, offset=10, count=4),
        ]
        accesses = reconstruct_offsets(Trace(nranks=1, records=recs))
        assert [a.rid for a in accesses] == [1]

    def test_adjacent_extents_agree_with_bruteforce(self):
        # [0,10) | [10,20) | [20,30): strictly adjacent, zero overlap
        # in both detectors (half-open comparison on both sides)
        t = make_table([(0, 0, 10, True), (1, 10, 20, True),
                        (2, 20, 30, True)])
        assert len(find_overlaps(t)) == 0
        assert len(find_overlaps_bruteforce(t)) == 0

    def test_one_byte_overlap_is_detected(self):
        # [0,11) and [10,20) share exactly byte 10
        t = make_table([(0, 0, 11, True), (1, 10, 20, True)])
        assert canonical_pairs(find_overlaps(t)) == {(0, 1)}
        assert canonical_pairs(find_overlaps_bruteforce(t)) == {(0, 1)}

    def test_straddling_extent_over_adjacent_chain(self):
        # [9,21) overlaps both halves of the adjacent chain but the
        # chain itself stays overlap-free
        t = make_table([(0, 0, 10, True), (1, 10, 20, True),
                        (2, 9, 21, False)])
        pairs = canonical_pairs(find_overlaps(t))
        assert pairs == {(0, 2), (1, 2)}
        assert pairs == canonical_pairs(find_overlaps_bruteforce(t))

    def test_one_byte_extents_against_bruteforce(self):
        # densely packed single-byte extents: equality edge cases in
        # searchsorted candidate generation
        rng = np.random.default_rng(99)
        extents = [(int(rng.integers(0, 4)), off, off + 1, True)
                   for off in rng.integers(0, 12, size=60)]
        t = make_table(extents)
        assert canonical_pairs(find_overlaps(t)) == \
            canonical_pairs(find_overlaps_bruteforce(t))

    def test_mixed_adjacency_fuzz_against_bruteforce(self):
        # starts/stops drawn from a tiny grid so adjacent and identical
        # boundaries dominate the sample
        rng = np.random.default_rng(7)
        extents = []
        for _ in range(150):
            start = int(rng.integers(0, 10)) * 10
            length = int(rng.integers(1, 3)) * 10
            extents.append((int(rng.integers(0, 4)), start,
                            start + length, bool(rng.integers(0, 2))))
        t = make_table(extents)
        assert canonical_pairs(find_overlaps(t)) == \
            canonical_pairs(find_overlaps_bruteforce(t))


class TestRankMatrix:
    def test_symmetric_counts(self):
        t = make_table([(0, 0, 10, True), (1, 5, 15, True),
                        (2, 100, 110, True)])
        mat = overlap_rank_matrix(t, nranks=3)
        assert mat[0, 1] == 1 and mat[1, 0] == 1
        assert mat.sum() == 2

    def test_same_rank_overlaps_on_diagonal(self):
        t = make_table([(1, 0, 10, True), (1, 0, 10, True)])
        mat = overlap_rank_matrix(t, nranks=2)
        assert mat[1, 1] == 2  # counted from both directions
