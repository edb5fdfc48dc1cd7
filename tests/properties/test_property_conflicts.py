"""Property tests over the conflict detector on random multi-rank traces.

Invariants from the paper's definitions:

* strong semantics never reports conflicts;
* commit conflicts are a subset of session conflicts (close is a commit);
* session conflicts are a subset of eventual conflicts;
* the first element of every conflict is a write (WAR can't conflict);
* conflicts relate accesses of the same file that genuinely overlap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.posix import flags as F
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder

NRANKS = 3
PATHS = ("/a", "/b")

event = st.one_of(
    st.tuples(st.just("write"), st.integers(0, NRANKS - 1),
              st.sampled_from(PATHS), st.integers(0, 60),
              st.integers(1, 30)),
    st.tuples(st.just("read"), st.integers(0, NRANKS - 1),
              st.sampled_from(PATHS), st.integers(0, 60),
              st.integers(1, 30)),
    st.tuples(st.just("fsync"), st.integers(0, NRANKS - 1),
              st.sampled_from(PATHS)),
    st.tuples(st.just("close_open"), st.integers(0, NRANKS - 1),
              st.sampled_from(PATHS)),
)


def build_trace(events):
    rec = Recorder(NRANKS)
    t = 0.0
    # every rank opens every path up front
    for rank in range(NRANKS):
        for fd, path in enumerate(PATHS, start=3):
            t += 1
            rec.record(rank, Layer.POSIX, "open", t, t + 0.1, path=path,
                       fd=fd, args={"flags": F.O_RDWR | F.O_CREAT})
    for ev in events:
        t += 1
        kind, rank, path = ev[0], ev[1], ev[2]
        fd = 3 + PATHS.index(path)
        if kind == "write":
            rec.record(rank, Layer.POSIX, "pwrite", t, t + 0.1,
                       path=path, fd=fd, offset=ev[3], count=ev[4])
        elif kind == "read":
            rec.record(rank, Layer.POSIX, "pread", t, t + 0.1,
                       path=path, fd=fd, offset=ev[3], count=ev[4])
        elif kind == "fsync":
            rec.record(rank, Layer.POSIX, "fsync", t, t + 0.1,
                       path=path, fd=fd)
        else:  # close then reopen
            rec.record(rank, Layer.POSIX, "close", t, t + 0.1, path=path,
                       fd=fd)
            t += 1
            rec.record(rank, Layer.POSIX, "open", t, t + 0.1, path=path,
                       fd=fd, args={"flags": F.O_RDWR | F.O_CREAT})
    return rec.build_trace()


def conflicts_for(trace, semantics):
    cs = analyze(trace).conflicts(semantics, max_per_file=None)
    return {(c.first.rid, c.second.rid) for c in cs}, cs


@given(st.lists(event, max_size=25))
@settings(max_examples=60, deadline=None)
def test_strong_never_conflicts(events):
    trace = build_trace(events)
    pairs, _ = conflicts_for(trace, Semantics.STRONG)
    assert not pairs


@given(st.lists(event, max_size=25))
@settings(max_examples=60, deadline=None)
def test_model_strength_inclusion_chain(events):
    trace = build_trace(events)
    commit, _ = conflicts_for(trace, Semantics.COMMIT)
    session, _ = conflicts_for(trace, Semantics.SESSION)
    eventual, _ = conflicts_for(trace, Semantics.EVENTUAL)
    assert commit <= session <= eventual


@given(st.lists(event, max_size=25))
@settings(max_examples=60, deadline=None)
def test_conflict_structure(events):
    trace = build_trace(events)
    _, cs = conflicts_for(trace, Semantics.EVENTUAL)
    for c in cs:
        assert c.first.is_write
        assert c.first.tstart <= c.second.tstart
        assert c.first.path == c.second.path == c.path
        assert c.first.offset < c.second.stop
        assert c.second.offset < c.first.stop
        expected_scope = "S" if c.first.rank == c.second.rank else "D"
        assert c.scope.value == expected_scope
        expected_kind = "WAW" if c.second.is_write else "RAW"
        assert c.kind.value == expected_kind
