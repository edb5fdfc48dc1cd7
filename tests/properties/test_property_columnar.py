"""Property test: the columnar trace round trip is lossless.

Hypothesis builds arbitrary traces — any layer, optional fields present
or absent, promoted and unpromoted args, nested MPI match keys, offsets
past 2 GiB — and asserts that object → columnar → ``.rtrc`` bytes →
columnar → object is the identity: the rebuilt records and events equal
the drawn objects, and the loaded columns equal the encoded ones
(zero-copy load included).  A trace the validator rejects
(a POSIX data record drawn without a byte count) must instead fail to
load, with the validator's message.  Empty and single-record traces
are explicit edge cases of the same strategies.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, TraceError
from repro.tracer.columnar import I64_NONE, read_rtrc
from repro.tracer.events import Layer, MPIEvent, TraceRecord
from repro.tracer.trace import Trace

FUNCS = ("open", "read", "write", "pread", "pwrite", "lseek", "fsync",
         "close", "stat", "H5Dwrite", "MPI_File_write_at")
PATHS = (None, "/a", "/b/c.dat", "/scratch/restart.00042",
         "/u/with spaces/ünicode.h5")

I64_MAX = int(np.iinfo(np.int64).max)

# includes > 2**31 and > 2**32 so the 64-bit columns are exercised
opt_i64 = st.one_of(st.none(),
                    st.integers(0, 2 ** 40),
                    st.integers(2 ** 32, 2 ** 55))
# includes the I64_NONE sentinel itself and both int64 range edges:
# args/results at those values must escape through the side tables and
# still round-trip exactly (the sentinel-collision regression)
arg_value = st.one_of(st.integers(-2 ** 40, 2 ** 40), st.booleans(),
                      st.text(max_size=8),
                      st.lists(st.integers(0, 9), max_size=3),
                      st.sampled_from((I64_NONE, I64_NONE - 1,
                                       I64_NONE + 1, I64_MAX,
                                       I64_MAX + 1)))
layers = st.sampled_from(list(Layer))


@st.composite
def records(draw, rid):
    tstart = draw(st.floats(0, 1e6, allow_nan=False))
    return TraceRecord(
        rid=rid,
        rank=draw(st.integers(0, 3)),
        layer=draw(layers),
        issuer=draw(layers),
        func=draw(st.sampled_from(FUNCS)),
        tstart=tstart,
        tend=tstart + draw(st.floats(0, 1.0, allow_nan=False)),
        path=draw(st.sampled_from(PATHS)),
        fd=draw(st.one_of(st.none(), st.integers(0, 512))),
        offset=draw(opt_i64),
        count=draw(opt_i64),
        args=draw(st.dictionaries(
            st.sampled_from(("flags", "whence", "offset", "length",
                             "size_at_open", "mode", "note")),
            arg_value, max_size=4)),
        result=draw(st.one_of(st.none(), st.integers(-1, 2 ** 40),
                              st.text(max_size=6),
                              st.sampled_from((I64_NONE, I64_NONE + 1,
                                               I64_MAX, I64_MAX + 1)))),
        gt_offset=draw(opt_i64),
    )


match_keys = st.recursive(
    st.one_of(st.integers(-10, 10), st.text(max_size=4)),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4)


@st.composite
def mpi_events(draw, eid):
    tstart = draw(st.floats(0, 1e6, allow_nan=False))
    return MPIEvent(
        eid=eid,
        rank=draw(st.integers(0, 3)),
        kind=draw(st.sampled_from(("barrier", "send", "recv", "bcast"))),
        match_key=draw(st.tuples(st.sampled_from(("p2p", "coll")),
                                 match_keys)),
        role=draw(st.sampled_from(("sender", "receiver", "member"))),
        tstart=tstart,
        tend=tstart + draw(st.floats(0, 1.0, allow_nan=False)))


@st.composite
def programs(draw):
    """Drawn record objects, event objects and meta of one trace."""
    recs = [draw(records(rid=i))
            for i in range(draw(st.integers(0, 12)))]
    events = [draw(mpi_events(eid=i))
              for i in range(draw(st.integers(0, 4)))]
    meta = draw(st.dictionaries(
        st.sampled_from(("app", "io_library", "seed")),
        st.one_of(st.text(max_size=6), st.integers(0, 99)),
        max_size=3))
    return recs, events, meta


@given(programs())
@settings(max_examples=80, deadline=None)
def test_rtrc_round_trip_is_identity(tmp_path_factory, program):
    recs, events, meta = program
    tr = Trace(nranks=4, records=recs, mpi_events=events, meta=meta)
    path = tmp_path_factory.mktemp("rtrc") / "t.rtrc"
    ct = tr.columnar
    ct.save(path)
    try:
        tr.validate()
    except TraceError as exc:
        with pytest.raises(AnalysisError, match=re.escape(str(exc))):
            read_rtrc(path)
        return
    loaded = read_rtrc(path)

    # column-level: the zero-copy views equal the in-memory arrays
    assert loaded.columns_equal(ct)
    assert all(not loaded.columns[name].flags.owndata
               for name in loaded.columns)

    # object-level: the rebuilt objects are the drawn ones, field for field
    back = loaded.to_trace()
    assert list(back.records) == recs
    assert list(back.mpi_events) == events
    assert back.meta == meta
    assert back.nranks == 4


@given(programs())
@settings(max_examples=40, deadline=None)
def test_from_trace_interns_deterministically(program):
    recs, events, meta = program
    a = Trace(nranks=4, records=recs, mpi_events=events,
              meta=meta).columnar
    b = Trace(nranks=4, records=recs, mpi_events=events,
              meta=meta).columnar
    assert a is not b and a.columns_equal(b)
    # interning is first-appearance ordered: ids are dense and in-range
    if a.nrecords:
        assert int(a.func_id.max()) == len(a.funcs) - 1
        assert int(a.path_id.min()) >= -1
        fid = np.asarray(a.func_id)
        assert np.array_equal(np.unique(fid), np.arange(len(a.funcs)))


def test_single_record_trace(tmp_path):
    recs = [TraceRecord(
        rid=0, rank=0, layer=Layer.POSIX, issuer=Layer.POSIX,
        func="pwrite", tstart=0.0, tend=0.1, path="/x", fd=3,
        offset=5 * 2 ** 30, count=1 << 20, result=1 << 20)]
    path = tmp_path / "one.rtrc"
    Trace(nranks=1, records=recs).columnar.save(path)
    back = read_rtrc(path).to_trace()
    assert list(back.records) == recs
    assert back.records[0].offset == 5 * 2 ** 30


def test_empty_trace_round_trips(tmp_path):
    path = tmp_path / "empty.rtrc"
    Trace(nranks=8, records=[]).columnar.save(path)
    loaded = read_rtrc(path)
    assert loaded.nrecords == 0 and loaded.nevents == 0
    assert loaded.to_trace().records == []
    assert loaded.nranks == 8
