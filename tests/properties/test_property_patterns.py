"""Property test: the table-based pattern and sharing stage equals the
list-based reference classifiers on random multi-rank, multi-file
accesses."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.highlevel import classify_sharing
from repro.core.patterns import global_pattern_mix, local_pattern_mix
from repro.core.records import AccessRecord, group_by_path
from tests.core import reference

NRANKS = 4
PATHS = ("/out/a", "/out/b", "/in/c")
#: sizes within 8x of each other keep every access; the wide palette
#: makes the small-metadata exception drop some
UNIFORM_SIZES = (64, 96, 128, 256)
MIXED_SIZES = (8, 64, 512, 4096)


@st.composite
def accesses(draw):
    sizes = draw(st.sampled_from((UNIFORM_SIZES, MIXED_SIZES)))
    n = draw(st.integers(0, 40))
    # unique record ids in an order unrelated to time, so ties in
    # tstart are broken by rid, not by list position
    rids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n,
                         unique=True))
    out = []
    for rid in rids:
        size = draw(st.sampled_from(sizes))
        offset = draw(st.integers(0, 40)) * 64
        tstart = float(draw(st.integers(0, 12)))   # frequent ties
        out.append(AccessRecord(
            rid=rid, rank=draw(st.integers(0, NRANKS - 1)),
            path=draw(st.sampled_from(PATHS)), offset=offset,
            stop=offset + size, is_write=draw(st.booleans()),
            tstart=tstart, tend=tstart + 0.5))
    return out


@given(accesses())
@settings(max_examples=200, deadline=None)
def test_table_patterns_equal_reference(records):
    tables = group_by_path(records)
    assert local_pattern_mix(tables) == reference.local_pattern_mix(records)
    assert global_pattern_mix(tables) == \
        reference.global_pattern_mix(records)
    assert classify_sharing(tables, NRANKS) == \
        reference.classify_sharing(records, NRANKS)
