"""Property: the one-sort trace build equals the tuple path.

``Recorder.build_trace`` aligns and sorts with one ``np.lexsort`` inside
:func:`~repro.tracer.columnar.encode`; :mod:`tests.tracer.reference`
keeps the tuple path it replaced (a Python-key sort that rebuilds every
row, then a row-at-a-time encode).  Hypothesis drives a
:class:`~repro.tracer.recorder.Recorder` through its public calls —
ranks interleaved at random, tstarts drawn from a small pool so they
tie across and within ranks, some ranks without a time origin, promoted
and extra ``args``, non-``int`` results, nested issuers, and empty
buffers — and both paths must give ``columns_equal`` traces.

An ``int`` the fd/offset/count/gt_offset columns cannot carry raises at
encode time on both paths, naming the record by its final (sorted) id.
"""

from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.tracer.columnar import I64_NONE
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder
from tests.tracer.reference import reference_build

I64_MAX = int(np.iinfo(np.int64).max)
#: a small pool, so tstarts tie across ranks and within one
TIMES = (0.0, -0.0, 1e-6, 0.5, 0.5 + 1e-9, 2.0, -3.25, 1e3)
FUNCS = ("open", "pwrite", "lseek", "H5Dwrite", "MPI_File_write_at_all")
PATHS = (None, "/a", "/b/c.h5")

opt_int = st.one_of(st.none(), st.integers(0, 2 ** 40))
arg_value = st.one_of(st.integers(-2 ** 40, 2 ** 40), st.booleans(),
                      st.text(max_size=4),
                      st.sampled_from((I64_NONE, I64_MAX, I64_MAX + 1)))
args = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(("flags", "flags_str", "whence", "offset",
                     "requested", "existed", "hint")),
    arg_value, max_size=4))
result = st.one_of(st.none(), st.integers(-5, 2 ** 33), st.booleans(),
                   st.floats(allow_nan=False), st.text(max_size=4),
                   st.sampled_from((I64_NONE, I64_MAX + 1)))


@st.composite
def calls(draw, nranks):
    """One Recorder call: a record (maybe inside library layers) or an
    MPI event, on a drawn rank."""
    rank = draw(st.integers(0, nranks - 1))
    tstart = draw(st.sampled_from(TIMES))
    tend = tstart + draw(st.sampled_from((0.0, 1e-6, 0.25)))
    if draw(st.booleans()):
        return ("mpi", rank, dict(
            kind=draw(st.sampled_from(("barrier", "send", "recv"))),
            match_key=("coll", draw(st.integers(0, 3)), "barrier"),
            role=draw(st.sampled_from(("member", "sender", "receiver"))),
            tstart=tstart, tend=tend))
    return ("record", rank, draw(st.lists(
        st.sampled_from((Layer.HDF5, Layer.MPIIO)), max_size=2)), dict(
        layer=draw(st.sampled_from(list(Layer))),
        func=draw(st.sampled_from(FUNCS)), tstart=tstart, tend=tend,
        path=draw(st.sampled_from(PATHS)), fd=draw(opt_int),
        offset=draw(opt_int), count=draw(opt_int), args=draw(args),
        result=draw(result), gt_offset=draw(opt_int)))


@st.composite
def recorders(draw):
    nranks = draw(st.integers(1, 5))
    rec = Recorder(nranks)
    for rank in range(nranks):
        origin = draw(st.one_of(st.none(), st.sampled_from(TIMES)))
        if origin is not None:
            rec.set_time_origin(rank, origin)
    for call in draw(st.lists(calls(nranks), max_size=40)):
        if call[0] == "mpi":
            _, rank, fields = call
            rec.record_mpi(rank, **fields)
            continue
        _, rank, layers, fields = call
        with ExitStack() as scopes:
            for layer in layers:
                scopes.enter_context(rec.in_layer(rank, layer))
            rec.record(rank, **fields)
    return rec


@given(rec=recorders())
@settings(max_examples=200, deadline=None)
def test_one_sort_build_matches_tuple_path(rec):
    meta = {"application": "prop"}
    built = rec.build_trace(meta=meta).columnar
    assert built.columns_equal(reference_build(rec, meta))


def test_empty_recorder_matches_tuple_path():
    rec = Recorder(3)
    rec.set_time_origin(1, 2.0)
    built = rec.build_trace().columnar
    assert built.nrecords == 0 and built.nevents == 0
    assert built.columns_equal(reference_build(rec))


@pytest.mark.parametrize("name", ["fd", "offset", "count", "gt_offset"])
def test_unstorable_int_names_the_final_rid(name):
    """Recorded first (provisional id 0) but third in time order, the
    record is reported under its final id 2 on both paths."""
    rec = Recorder(2)
    rec.record(1, Layer.POSIX, "pwrite", 5.0, 6.0, **{name: I64_NONE})
    rec.record(0, Layer.POSIX, "open", 1.0, 2.0)
    rec.record(1, Layer.POSIX, "open", 1.0, 2.0)
    message = (f"record 2: {name}={I64_NONE} cannot be stored in an int64 "
               f"trace column")
    with pytest.raises(AnalysisError, match=message):
        rec.build_trace()
    with pytest.raises(AnalysisError, match=message):
        reference_build(rec)
