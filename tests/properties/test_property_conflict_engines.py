"""Property tests: the array conflict classifier equals the per-pair
binary-search oracle, the array conflict set equals the object-building
detector, the object model's sessions and pairs equal their rank-by-rank
oracle, the counting path equals detection, and the stages that run
once per trace equal the per-file oracle on traces of many files."""

from collections import Counter
from itertools import product

import numpy as np
from hypothesis import example, given, settings

from repro.core.conflicts import (
    _object_conflict_pairs,
    _object_sessions,
    _Shared,
    count_conflicts,
)
from repro.core.highlevel import classify_sharing
from repro.core.patterns import global_pattern_mix, local_pattern_mix
from repro.core.records import AccessTable
from repro.core.report import analyze
from repro.core.semantics import (
    Semantics,
    compatible_filesystems,
    conflicts_matter,
    object_store_compatible,
    weakest_sufficient_semantics,
)
from repro.posix import flags as F
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder
from tests.core import reference
from tests.core.reference import (
    detect_conflicts_objects,
    file_conflicts,
    object_conflict_pairs,
    object_sessions,
    reference_conflicts,
)
from tests.properties.test_property_conflicts import build_trace, event

import hypothesis.strategies as st


def pair_set(conflicts):
    return {(c.first.rid, c.second.rid, c.kind, c.scope) for c in conflicts}


def assert_matches_reference(trace, semantics_list):
    report = analyze(trace)
    for semantics in semantics_list:
        fast = report.conflicts(semantics)
        slow = reference_conflicts(report.visibility, report.tables,
                                   semantics)
        assert pair_set(fast) == pair_set(slow), semantics


@given(st.lists(event, max_size=30))
@settings(max_examples=80, deadline=None)
def test_vectorized_equals_python_oracle(events):
    assert_matches_reference(
        build_trace(events),
        (Semantics.STRONG, Semantics.COMMIT, Semantics.SESSION,
         Semantics.EVENTUAL))


def test_engines_agree_on_real_apps(study8):
    for label in ("FLASH-HDF5 fbs", "NWChem-POSIX", "LAMMPS-ADIOS",
                  "MACSio-Silo"):
        assert_matches_reference(study8.find(label).trace,
                                 (Semantics.COMMIT, Semantics.SESSION))


@given(st.lists(event, max_size=30))
@settings(max_examples=60, deadline=None)
def test_counting_fast_path_matches_detection(events):
    report = analyze(build_trace(events))
    for semantics in Semantics:
        counts = count_conflicts(report.visibility, report.tables,
                                 semantics)
        expected = Counter(c.label for c in report.conflicts(semantics))
        assert counts == {"WAW-S": expected.get("WAW-S", 0),
                          "WAW-D": expected.get("WAW-D", 0),
                          "RAW-S": expected.get("RAW-S", 0),
                          "RAW-D": expected.get("RAW-D", 0)}, semantics


# -- the array conflict set against the object-building detector --------------

NRANKS = 3
FILES = ("/a", "/b", "/c")
#: (kind, rank, path, offset, count, shares the previous op's start)
timed_op = st.tuples(
    st.sampled_from(("write", "read", "fsync", "close_open")),
    st.integers(0, NRANKS - 1), st.sampled_from(FILES),
    st.integers(0, 24), st.integers(1, 16), st.booleans())


def build_tied_trace(ops):
    """A trace over several files in which an op may start at the same
    time as the one before it."""
    rec = Recorder(NRANKS)
    t = 0.0
    for rank in range(NRANKS):
        for fd, path in enumerate(FILES, start=3):
            t += 1
            rec.record(rank, Layer.POSIX, "open", t, t + 0.1, path=path,
                       fd=fd, args={"flags": F.O_RDWR | F.O_CREAT})
    for kind, rank, path, offset, count, tied in ops:
        t += 0.0 if tied else 1.0
        fd = 3 + FILES.index(path)
        if kind in ("write", "read"):
            rec.record(rank, Layer.POSIX, "p" + kind, t, t + 0.1,
                       path=path, fd=fd, offset=offset, count=count)
        elif kind == "fsync":
            rec.record(rank, Layer.POSIX, "fsync", t, t + 0.1, path=path,
                       fd=fd)
        else:
            rec.record(rank, Layer.POSIX, "close", t, t + 0.1, path=path,
                       fd=fd)
            rec.record(rank, Layer.POSIX, "open", t + 0.5, t + 0.6,
                       path=path, fd=fd,
                       args={"flags": F.O_RDWR | F.O_CREAT})
    return rec.build_trace()


def verdicts(by_model):
    return ([weakest_sufficient_semantics(by_model,
                                          same_process_ordering=spo)
             for spo in (True, False)]
            + [object_store_compatible(by_model, same_process_ordering=spo)
               for spo in (True, False)]
            + [[fs.name for fs in compatible_filesystems(by_model)]]
            + [conflicts_matter(cs, same_process_ordering=spo)
               for cs in by_model.values() for spo in (True, False)])


@given(st.lists(timed_op, min_size=4, max_size=40))
@settings(max_examples=100, deadline=None)
def test_array_set_equals_object_detector(ops):
    report = analyze(build_tied_trace(ops))
    vis, tables = report.visibility, report.tables
    fast_by_model, slow_by_model = {}, {}
    for semantics in Semantics:
        fast = report.conflicts(semantics)
        slow = detect_conflicts_objects(vis, tables, semantics)
        assert list(fast) == list(slow), semantics
        assert len(fast) == len(slow)
        assert bool(fast) == bool(slow)
        assert fast.flags == slow.flags
        assert fast.paths == slow.paths
        assert fast.cross_process_count == slow.cross_process_count
        assert list(fast.cross_process_only) == list(slow.cross_process_only)
        assert {p: list(cs) for p, cs in fast.by_path().items()} == {
            p: [c for c in slow if c.path == p] for p in slow.paths}
        fast_by_model[semantics] = fast
        slow_by_model[semantics] = slow
        counts = Counter(c.label for c in slow)
        assert count_conflicts(vis, tables, semantics) == {
            label: counts.get(label, 0)
            for label in ("WAW-S", "WAW-D", "RAW-S", "RAW-D")}
    assert verdicts(fast_by_model) == verdicts(slow_by_model)


# -- the object model against its rank-by-rank oracle -------------------------

OBJECT_RANKS = 4
OBJECT_FILES = FILES[:2]
#: (kind, rank, path, offset, count, shares the previous op's start)
object_op = st.tuples(
    st.sampled_from(("write", "read", "open", "close", "close_open")),
    st.integers(0, OBJECT_RANKS - 1), st.sampled_from(OBJECT_FILES),
    st.integers(0, 24), st.integers(1, 16), st.booleans())
#: per (rank, file): the op its first open comes with (past the last op:
#: after every op), so a rank may write or read a file before it opens it
first_opens = st.lists(st.integers(0, 16),
                       min_size=OBJECT_RANKS * len(OBJECT_FILES),
                       max_size=OBJECT_RANKS * len(OBJECT_FILES))


def build_object_trace(ops, first_open):
    """A trace whose times tie, whose files are opened again and again,
    and whose ranks may access a file before their first open of it.

    Times move in half steps and an op may share the previous op's
    start, so accesses tie with opens and closes of their own rank."""
    rec = Recorder(OBJECT_RANKS)
    due = dict(zip(product(range(OBJECT_RANKS), OBJECT_FILES), first_open))

    def record(func, rank, path, t, **kw):
        rec.record(rank, Layer.POSIX, func, t, t + 0.1, path=path,
                   fd=3 + OBJECT_FILES.index(path), **kw)

    def open_file(rank, path, t):
        record("open", rank, path, t,
               args={"flags": F.O_RDWR | F.O_CREAT})

    t = 0.0
    for i, (kind, rank, path, offset, count, tied) in enumerate(ops):
        t += 0.0 if tied else 0.5
        for rank_path in [k for k, at in due.items() if at == i]:
            open_file(*rank_path, t)
            del due[rank_path]
        if kind in ("write", "read"):
            record("p" + kind, rank, path, t, offset=offset, count=count)
        elif kind == "open":
            open_file(rank, path, t)
        else:
            record("close", rank, path, t)
            if kind == "close_open":
                open_file(rank, path, t + 0.5)
    t += 1.0
    for rank_path in due:
        open_file(*rank_path, t)
    return rec.build_trace()


@given(st.lists(object_op, min_size=2, max_size=40), first_opens)
@settings(max_examples=150, deadline=None)
# rank 0 writes /a again after its close, with no new open: the session
# publishes at its *last* access's close, after rank 1's open
@example(ops=[("write", 0, "/a", 0, 4, False),
              ("close", 0, "/a", 0, 1, False),
              ("open", 1, "/a", 0, 1, False),
              ("read", 1, "/a", 0, 4, False),
              ("write", 0, "/a", 0, 4, False)],
         first_open=[0] + [16] * 7)
# rank 1 opens /a at the very time rank 0's PUT closes it, and each
# rank's access ties with its own open: nothing is cleared
@example(ops=[("write", 0, "/a", 0, 4, False),
              ("close", 0, "/a", 0, 1, False),
              ("open", 1, "/a", 0, 1, True),
              ("read", 1, "/a", 0, 4, True)],
         first_open=[0] + [16] * 7)
def test_object_model_equals_rank_by_rank_oracle(ops, first_open):
    report = analyze(build_object_trace(ops, first_open))
    vis, tables = report.visibility, report.tables
    shared = _Shared(tables, vis)
    s_file, *sessions = _object_sessions(shared)
    pairs = _object_conflict_pairs(shared)
    p_file = tables.whole.path_id[pairs[0]]
    for f, (path, table) in enumerate(tables.items()):
        lo = tables.bounds[f]
        # rows of tables.whole, made rows of the file's table
        local = [a for a in sessions[:4]] + [
            np.where(a >= 0, a - lo, a) for a in sessions[4:]]
        for fast, slow in zip(local, object_sessions(table, vis)):
            assert fast.dtype == slow.dtype, path
            assert np.array_equal(fast[s_file == f], slow), path
        local = [pairs[0] - lo, pairs[1] - lo, *pairs[2:]]
        for fast, slow in zip(local, object_conflict_pairs(table, vis)):
            assert fast.dtype == slow.dtype, path
            assert np.array_equal(fast[p_file == f], slow), path
    fast = report.conflicts(Semantics.OBJECT)
    slow = detect_conflicts_objects(vis, tables, Semantics.OBJECT)
    assert list(fast) == list(slow)


# -- the trace-wide stages against the per-file oracle ------------------------

WIDE_RANKS = 3
#: the table columns that hold values, not ids into a string table
VALUE_COLUMNS = ("rid", "rank", "offset", "stop", "is_write", "tstart",
                 "tend", "fd")
#: multi-access files; /w/big draws most of the operations
WIDE_FILES = ("/w/big", "/w/big", "/w/big", "/w/next", "/v/other")
#: files opened and closed by every rank, never read or written
NO_DATA = ("/v/empty", "/w/bare")
#: ranks that do not open /v/other up front: they reach it through their
#: /w/big descriptor, and open it only when an op closes and reopens it
LATE = {(1, "/v/other"), (2, "/v/other")}
#: (kind, rank, file, offset, count, shares the previous op's start)
wide_op = st.tuples(
    st.sampled_from(("write", "write", "read", "fsync", "close_open")),
    st.integers(0, WIDE_RANKS - 1), st.sampled_from(WIDE_FILES),
    st.integers(0, 24), st.integers(1, 16), st.booleans())
#: one file accessed once: (rank, is_write, offset, count, opened, tied)
one_access = st.tuples(
    st.integers(0, WIDE_RANKS - 1), st.booleans(), st.integers(0, 24),
    st.integers(1, 16), st.booleans(), st.booleans())


def build_wide_trace(ops, singles):
    """A trace of many files: one large, a few shared, many accessed
    once, some opened and closed with no data, one that some ranks use
    before they open it.  Every file's extents sit in the same few dozen
    bytes, so files next to each other in path order would overlap if a
    search ran past a file's end, and an op may start at the very time
    of the op before it, on another file."""
    rec = Recorder(WIDE_RANKS)
    paths = sorted(set(WIDE_FILES)) + list(NO_DATA)
    fds = {path: 3 + i for i, path in enumerate(paths)}

    def fd_of(rank, path):
        return fds["/w/big" if (rank, path) in LATE else path]

    t = 0.0
    for rank in range(WIDE_RANKS):
        for path in paths:
            t += 0.5
            if (rank, path) not in LATE:
                rec.record(rank, Layer.POSIX, "open", t, t + 0.1, path=path,
                           fd=fds[path],
                           args={"flags": F.O_RDWR | F.O_CREAT})

    def step(tied):
        nonlocal t
        t += 0.0 if tied else 0.5
        return t

    singles = iter(enumerate(singles))
    for kind, rank, path, offset, count, tied in ops:
        at = step(tied)
        fd = fd_of(rank, path)
        if kind in ("write", "read"):
            rec.record(rank, Layer.POSIX, "p" + kind, at, at + 0.1,
                       path=path, fd=fd, offset=offset, count=count)
        elif kind == "fsync":
            rec.record(rank, Layer.POSIX, "fsync", at, at + 0.1, path=path,
                       fd=fd)
        else:
            rec.record(rank, Layer.POSIX, "close", at, at + 0.1, path=path,
                       fd=fd)
            rec.record(rank, Layer.POSIX, "open", at + 0.25, at + 0.3,
                       path=path, fd=fd,
                       args={"flags": F.O_RDWR | F.O_CREAT})
        # the one-access files come between the other operations
        i, single = next(singles, (None, None))
        if single is None:
            continue
        rank, write, offset, count, opened, tied = single
        # a file never opened is written through an open fd of the rank
        path, fd = f"/one/x{i:02d}", 64 + i if opened else fds["/w/big"]
        at = step(tied)
        if opened:
            rec.record(rank, Layer.POSIX, "open", at, at + 0.1, path=path,
                       fd=fd, args={"flags": F.O_RDWR | F.O_CREAT})
        rec.record(rank, Layer.POSIX, "pwrite" if write else "pread",
                   at, at + 0.1, path=path, fd=fd, offset=offset,
                   count=count)
        if opened:
            rec.record(rank, Layer.POSIX, "close", at + 0.2, at + 0.3,
                       path=path, fd=fd)
    t += 1.0
    for rank in range(WIDE_RANKS):
        for path in NO_DATA:
            rec.record(rank, Layer.POSIX, "close", t, t + 0.1, path=path,
                       fd=fds[path])
    return rec.build_trace()


@given(st.lists(wide_op, min_size=1, max_size=40),
       st.lists(one_access, max_size=12))
@settings(max_examples=150, deadline=None)
# two one-access files whose extents overlap, back to back in path
# order, and a write to the large file at the same offsets
@example(ops=[("write", 0, "/w/big", 4, 8, False),
              ("read", 1, "/w/next", 4, 8, True)],
         singles=[(0, True, 0, 8, False, True), (1, True, 4, 8, False, True)])
# rank 1 writes /v/other twice, never having opened it, and rank 0
# reopens /w/big, the next file, in between: one catch-all session
@example(ops=[("write", 0, "/w/big", 0, 4, False),
              ("write", 1, "/v/other", 0, 4, False),
              ("close_open", 0, "/w/big", 0, 1, False),
              ("write", 1, "/v/other", 8, 4, False)], singles=[])
def test_trace_wide_stages_equal_the_per_file_oracle(ops, singles):
    report = analyze(build_wide_trace(ops, singles))
    vis, tables = report.visibility, report.tables
    records = list(report.accesses)
    # tables: the views of the one trace-wide table are the per-file
    # tables built record by record
    by_path: dict = {}
    for r in records:
        by_path.setdefault(r.path, []).append(r)
    assert list(tables) == sorted(by_path)
    for path, table in tables.items():
        slow = AccessTable(path, by_path[path])
        for name in VALUE_COLUMNS:
            a, b = getattr(table, name), getattr(slow, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (path, name)
        assert table.records == slow.records
    # every model: each file's arrays, order, counts and flags come out
    # as the file's own sweep gives them
    for semantics in Semantics:
        fast = report.conflicts(semantics)
        got = {f.table.path: f for f in fast.files}
        labels = Counter()
        for path, table in tables.items():
            slow = file_conflicts(table, vis, semantics)
            if not len(slow[0]):
                assert path not in got, (semantics, path)
                continue
            f = got[path]
            assert f.table is table
            for a, b in zip(f[1:], slow):
                assert a.dtype == b.dtype and np.array_equal(a, b), \
                    (semantics, path)
            labels.update((2 * ~slow[2] + ~slow[3]).tolist())
        counts = [labels[i] for i in range(4)]
        assert list(fast.counts.values()) == counts, semantics
        assert list(fast.flags.values()) == [n > 0 for n in counts]
    # sharing and both pattern mixes
    assert classify_sharing(tables, WIDE_RANKS) == \
        reference.classify_sharing(records, WIDE_RANKS)
    assert local_pattern_mix(tables) == reference.local_pattern_mix(records)
    assert global_pattern_mix(tables) == \
        reference.global_pattern_mix(records)
