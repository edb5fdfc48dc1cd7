"""Property: the offset solve equals the record-object replay oracle.

Hypothesis writes random multi-rank POSIX programs straight into trace
records — opens with and without ``O_APPEND``/``O_TRUNC`` and a seeded
``size_at_open``, ``dup``, ``SEEK_SET``/``SEEK_CUR``/``SEEK_END`` and an
unknown whence, ``truncate``/``ftruncate``, sequential and explicit
reads and writes, closes, and descriptors that were never opened or are
already closed.  Most of these programs need the solve's sequential
replay, not the array pass.  The solve must agree with
``tests/core/reference.py``: the same accesses in the solve's documented
order (by path, then ``(tstart, rid)``) and the same per-file tables, or
the same :class:`TraceError` text, in strict mode and with
``strict=False`` alike.

A second property draws programs the array pass takes whole, with many
ranks and descriptors spread widely or narrowly, so that the solve
groups descriptor streams by a 16-bit ``(rank, fd)`` key on some draws
and by the dense-id key on others, and with rank clocks skewed, so that
rows are out of start order across ranks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import offsets
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


def to_record(rid: int, rank: int, op: tuple,
              t: float | None = None) -> TraceRecord:
    """The record of ``op``, starting at ``t`` (by default, ``rid``)."""
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
    t = float(rid if t is None else t)
    return TraceRecord(rid=rid, rank=rank, layer=Layer.POSIX,
                       issuer=Layer.APP, func=func, tstart=t,
                       tend=t + 0.5, **fields)


def in_file_order(access) -> tuple:
    """The solve's documented access order: by path, then time."""
    return access.path, access.tstart, access.rid


def outcome(solve):
    try:
        return solve(), None
    except TraceError as exc:
        return None, str(exc)


def assert_solve_matches(records: list[TraceRecord], nranks: int) -> None:
    """The solve and the oracle agree on ``records``: the same error, or
    the same accesses in the documented order and the same tables."""
    trace = Trace(nranks=nranks, records=records)
    for strict in (True, False):
        want, want_error = outcome(lambda: reference.reconstruct_offsets(
            records, strict=strict))
        got, got_error = outcome(lambda: reconstruct_offsets(
            trace, strict=strict))
        assert got_error == want_error
        if want_error is not None:
            continue
        assert list(got) == sorted(want, key=in_file_order)
        tables, expected = group_by_path(got), group_by_path(want)
        assert list(tables) == list(expected)
        for path, table in tables.items():
            for column in ("rid", "rank", "offset", "stop", "is_write",
                           "tstart", "tend"):
                assert np.array_equal(getattr(table, column),
                                      getattr(expected[path], column))
            assert table.records == expected[path].records


@given(programs())
@settings(max_examples=500, deadline=None)
def test_solve_matches_the_record_replay(program):
    assert_solve_matches([to_record(rid, rank, op)
                          for rid, (rank, op) in enumerate(program)], 2)


#: rank counts and fd spans around the 16-bit stream key: 16 ranks x
#: 4096 fds and 1 rank x 65,536 fds fill it exactly, one more of either
#: does not fit
WIDE_NRANKS = (1, 2, 3, 16, 17, 48)
FD_SPANS = (1, 2, 4096, 40_000, 65_536, 65_537)
FD_BASES = (0, 3, 1 << 20, 1 << 40)
#: the open flags of the wide programs: none of them needs the replay
WIDE_FLAGS = (F.O_RDONLY, F.O_WRONLY | F.O_CREAT,
              F.O_RDWR | F.O_CREAT | F.O_TRUNC)


@st.composite
def wide_programs(draw):
    """``(nranks, records, damaged)``: a few active ranks, always
    including the last, each with descriptors at both ends of an fd
    range and one inside it.  Every call is on a descriptor its rank
    has open, unless ``damaged``: then one rank reads an fd it never
    opened, or writes at an offset through one."""
    nranks = draw(st.sampled_from(WIDE_NRANKS))
    base = draw(st.sampled_from(FD_BASES))
    span = draw(st.sampled_from(FD_SPANS))
    fds = sorted({base, base + span - 1,
                  base + draw(st.integers(0, span - 1))})
    active = sorted({0, nranks - 1, draw(st.integers(0, nranks - 1))})
    # each rank's clock: equal, behind or ahead of the others
    skew = {rank: draw(st.sampled_from((0.0, -40.0, 25.0)))
            for rank in active}
    steps = draw(st.lists(st.tuples(
        st.sampled_from(active), st.sampled_from(fds),
        st.sampled_from(("open", "write", "write", "read", "lseek",
                         "lseek", "pwrite", "pread", "close")),
        paths, st.integers(0, 48), st.sampled_from(WIDE_FLAGS)),
        min_size=1, max_size=40))
    is_open: set[tuple[int, int]] = set()
    program = []
    for rank, fd, kind, path, n, flags in steps:
        # a call on a closed descriptor opens it first
        if kind == "open" or (rank, fd) not in is_open:
            program.append((rank, ("open", path, fd, flags, None)))
            is_open.add((rank, fd))
            if kind == "open":
                continue
        if kind == "close":
            program.append((rank, ("close", fd)))
            is_open.discard((rank, fd))
        elif kind in ("write", "read"):
            program.append((rank, (kind, fd, n)))
        elif kind == "lseek":
            program.append((rank, ("lseek", fd, n, F.SEEK_SET if n % 2
                                   else F.SEEK_CUR)))
        else:
            program.append((rank, (kind, path, fd, 8 * n, n)))
    damaged = draw(st.booleans())
    if damaged:
        bad = (("read", base + span, 8) if draw(st.booleans())
               else ("pwrite", "/a", base + span, 0, 8))
        program.insert(draw(st.integers(0, len(program))),
                       (draw(st.sampled_from(active)), bad))
    records = [to_record(rid, rank, op, t=rid + skew[rank])
               for rid, (rank, op) in enumerate(program)]
    return nranks, records, damaged


@given(wide_programs())
@settings(max_examples=300, deadline=None)
def test_solve_matches_the_replay_across_the_stream_key(drawn):
    nranks, records, damaged = drawn
    assert_solve_matches(records, nranks)
    if not damaged:  # the array pass takes the whole program
        offsets._reconstruct_vectorized(Trace(nranks=nranks,
                                              records=records).columnar)
