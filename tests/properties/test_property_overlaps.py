"""Property tests: the overlap sweep equals the brute-force oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlaps import find_overlaps
from repro.core.records import AccessRecord, AccessTable
from tests.core.reference import canonical_pairs, find_overlaps_bruteforce

extent = st.tuples(
    st.integers(0, 3),        # rank
    st.integers(0, 300),      # offset
    st.integers(1, 60),       # length
    st.booleans(),            # is_write
)


def table_from(extents):
    records = [
        AccessRecord(rid=i, rank=r, path="/f", offset=o, stop=o + n,
                     is_write=w, tstart=float(i), tend=float(i) + 0.5)
        for i, (r, o, n, w) in enumerate(extents)
    ]
    return AccessTable("/f", records)


@given(st.lists(extent, max_size=40))
@settings(max_examples=80)
def test_sweep_equals_bruteforce(extents):
    t = table_from(extents)
    assert canonical_pairs(find_overlaps(t)) == \
        canonical_pairs(find_overlaps_bruteforce(t))


@given(st.lists(extent, min_size=2, max_size=25), st.randoms())
@settings(max_examples=40)
def test_pairs_invariant_under_time_permutation(extents, rnd):
    """Overlap structure depends only on extents, not on record order.

    Records are identified by rid so pairs can be compared across
    differently-ordered tables.
    """
    base = table_from(extents)

    def rid_pairs(t):
        out = set()
        for i, j in find_overlaps(t):
            a, b = int(t.rid[i]), int(t.rid[j])
            out.add((min(a, b), max(a, b)))
        return out

    shuffled = list(enumerate(extents))
    rnd.shuffle(shuffled)
    records = [
        AccessRecord(rid=rid, rank=r, path="/f", offset=o, stop=o + n,
                     is_write=w, tstart=float(pos), tend=float(pos) + 0.5)
        for pos, (rid, (r, o, n, w)) in enumerate(shuffled)
    ]
    assert rid_pairs(base) == rid_pairs(AccessTable("/f", records))


@given(st.lists(extent, max_size=30))
@settings(max_examples=40)
def test_every_reported_pair_actually_overlaps(extents):
    t = table_from(extents)
    for i, j in find_overlaps(t):
        assert t.offset[i] < t.stop[j] and t.offset[j] < t.stop[i]


@given(st.lists(extent, max_size=30))
@settings(max_examples=40)
def test_no_self_pairs_no_duplicates(extents):
    t = table_from(extents)
    pairs = find_overlaps(t)
    seen = set()
    for i, j in pairs:
        assert i != j
        key = (min(i, j), max(i, j))
        assert key not in seen
        seen.add(key)


# adversarial inputs for the sweep's searchsorted candidate rule:
# many extents sharing one start offset, 1-byte extents sitting
# exactly on bucket boundaries, and rare long extents spanning
# nearly the whole offset space from a duplicated start
degenerate_extent = st.one_of(
    st.tuples(st.integers(0, 3), st.sampled_from([0, 7, 64]),
              st.just(1), st.booleans()),
    st.tuples(st.integers(0, 3), st.sampled_from([0, 7, 64]),
              st.integers(1, 300), st.booleans()),
    st.tuples(st.integers(0, 3), st.integers(0, 300),
              st.sampled_from([1, 250, 300]), st.booleans()),
)


@given(st.lists(degenerate_extent, max_size=40))
@settings(max_examples=120)
def test_sweep_equals_bruteforce_on_degenerate_extents(extents):
    t = table_from(extents)
    assert canonical_pairs(find_overlaps(t)) == \
        canonical_pairs(find_overlaps_bruteforce(t))


@given(st.integers(2, 20), st.integers(0, 100))
@settings(max_examples=40)
def test_duplicate_offset_extents_all_pair(n, offset):
    """n identical extents overlap pairwise: exactly C(n, 2) pairs."""
    t = table_from([(i % 4, offset, 8, True) for i in range(n)])
    pairs = canonical_pairs(find_overlaps(t))
    assert len(pairs) == n * (n - 1) // 2
    assert pairs == canonical_pairs(find_overlaps_bruteforce(t))


def test_zero_length_extents_never_enter_a_table():
    """Zero-length extents are rejected upstream (AccessTable refuses
    them and offset reconstruction drops 0-count records), so both
    detectors may assume every extent covers at least one byte."""
    import pytest

    from repro.errors import AnalysisError

    rec = AccessRecord(rid=0, rank=0, path="/f", offset=5, stop=5,
                       is_write=True, tstart=0.0, tend=0.1)
    with pytest.raises(AnalysisError):
        AccessTable("/f", [rec])
