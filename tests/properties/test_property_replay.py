"""Property: the offset solve equals the record-object replay oracle.

Hypothesis writes random multi-rank POSIX programs straight into trace
records — opens with and without ``O_APPEND``/``O_TRUNC`` and a seeded
``size_at_open``, ``dup``, ``SEEK_SET``/``SEEK_CUR``/``SEEK_END`` and an
unknown whence, ``truncate``/``ftruncate``, sequential and explicit
reads and writes, closes, and descriptors that were never opened or are
already closed.  Most of these programs need the solve's sequential
replay, not the array pass.  The solve must agree with
``tests/core/reference.py``: the same accesses in the same order and
the same per-file tables, or the same :class:`TraceError` text, in
strict mode and with ``strict=False`` alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offsets import reconstruct_offsets
from repro.core.records import group_by_path
from repro.errors import TraceError
from repro.posix import flags as F
from repro.tracer.events import Layer, TraceRecord
from repro.tracer.trace import Trace
from tests.core import reference

PATHS = ("/a", "/b")
RANKS = (0, 1)
#: every rank opens these first; fd 9 is never opened
OPEN_FDS = (3, 4)
paths = st.sampled_from(PATHS)
sizes = st.integers(0, 64)
# a zero-byte read or write resolves to no access at all
counts = st.one_of(st.integers(1, 64), st.just(0))
# the last two flags values are escape-encoded into the side table: a
# bool (it reads as O_WRONLY) and an int past the int64 range
open_flags = st.sampled_from((
    F.O_RDONLY, F.O_RDONLY | F.O_TRUNC, F.O_WRONLY | F.O_CREAT,
    F.O_RDWR | F.O_CREAT | F.O_TRUNC, F.O_WRONLY | F.O_CREAT | F.O_APPEND,
    F.O_RDWR | F.O_APPEND, True,
    1 << 64 | F.O_WRONLY | F.O_APPEND))
whences = st.sampled_from((F.SEEK_SET, F.SEEK_CUR, F.SEEK_END,
                           F.SEEK_END, 7))
# repeated names weight the draw towards opens and sequential writes
KINDS = ("open",) * 3 + ("write",) * 5 + ("read",) * 2 + (
    "lseek",) * 3 + ("dup", "ftruncate") * 2 + (
    "close", "truncate", "pwrite", "pread")


def op_strategy(fds):
    """One POSIX call whose descriptors come from ``fds``."""
    table = {
        "open": st.tuples(st.just("open"), paths,
                          st.sampled_from(OPEN_FDS), open_flags,
                          st.one_of(st.none(), sizes)),
        "write": st.tuples(st.just("write"), fds, counts),
        "read": st.tuples(st.just("read"), fds, counts),
        "close": st.tuples(st.just("close"), fds),
        "dup": st.tuples(st.just("dup"), fds, st.sampled_from(OPEN_FDS)),
        "lseek": st.tuples(st.just("lseek"), fds, st.integers(-8, 64),
                           whences),
        "truncate": st.tuples(st.just("truncate"), paths, sizes),
        "ftruncate": st.tuples(st.just("ftruncate"), fds,
                               st.one_of(st.none(), paths), sizes),
        "pwrite": st.tuples(st.just("pwrite"), paths, fds, sizes, counts),
        "pread": st.tuples(st.just("pread"), paths, fds, sizes, counts),
    }
    return st.sampled_from(KINDS).flatmap(table.__getitem__)


@st.composite
def programs(draw):
    """``(rank, op)`` pairs: every rank opens fds 3 and 4, then random
    calls follow; half the programs also touch the untracked fd 9."""
    prologue = [(rank, ("open", draw(paths), fd, draw(open_flags),
                        draw(st.one_of(st.none(), sizes))))
                for rank in RANKS for fd in OPEN_FDS]
    fds = (st.sampled_from(OPEN_FDS + (9,)) if draw(st.booleans())
           else st.sampled_from(OPEN_FDS))
    body = draw(st.lists(st.tuples(st.sampled_from(RANKS),
                                   op_strategy(fds)),
                         min_size=4, max_size=36))
    return prologue + body


def to_record(rid: int, rank: int, op: tuple) -> TraceRecord:
    func = op[0]
    fields: dict = {}
    if func == "open":
        _, path, fd, flags, size = op
        args = {"flags": flags}
        if size is not None:
            args["size_at_open"] = size
        fields = dict(path=path, fd=fd, args=args)
    elif func == "close":
        fields = dict(fd=op[1])
    elif func == "dup":
        fields = dict(fd=op[1], args={"newfd": op[2]})
    elif func == "lseek":
        fields = dict(fd=op[1], args={"offset": op[2], "whence": op[3]})
    elif func == "truncate":
        fields = dict(path=op[1], args={"length": op[2]})
    elif func == "ftruncate":
        fields = dict(fd=op[1], path=op[2], args={"length": op[3]})
    elif func in ("write", "read"):
        fields = dict(fd=op[1], count=op[2])
    else:
        _, path, fd, offset, count = op
        fields = dict(path=path, fd=fd, offset=offset, count=count)
    return TraceRecord(rid=rid, rank=rank, layer=Layer.POSIX,
                       issuer=Layer.APP, func=func, tstart=float(rid),
                       tend=rid + 0.5, **fields)


def outcome(solve):
    try:
        return solve(), None
    except TraceError as exc:
        return None, str(exc)


@given(programs())
@settings(max_examples=500, deadline=None)
def test_solve_matches_the_record_replay(program):
    records = [to_record(rid, rank, op)
               for rid, (rank, op) in enumerate(program)]
    trace = Trace(nranks=2, records=records)
    for strict in (True, False):
        want, want_error = outcome(lambda: reference.reconstruct_offsets(
            records, strict=strict))
        got, got_error = outcome(lambda: reconstruct_offsets(
            trace, strict=strict))
        assert got_error == want_error
        if want_error is not None:
            continue
        assert list(got) == want
        tables, expected = group_by_path(got), group_by_path(want)
        assert list(tables) == list(expected)
        for path, table in tables.items():
            for column in ("rid", "rank", "offset", "stop", "is_write",
                           "tstart", "tend"):
                assert np.array_equal(getattr(table, column),
                                      getattr(expected[path], column))
            assert table.records == expected[path].records
