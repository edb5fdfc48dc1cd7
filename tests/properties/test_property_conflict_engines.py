"""Property tests: the array conflict classifier equals the per-pair
binary-search oracle, the array conflict set equals the object-building
detector, the object model's sessions and pairs equal their rank-by-rank
oracle, and the counting path equals detection."""

from collections import Counter
from itertools import product

import numpy as np
from hypothesis import example, given, settings

from repro.core.conflicts import (
    _object_conflict_pairs,
    _object_sessions,
    count_conflicts,
)
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
from tests.core.reference import (
    detect_conflicts_objects,
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
        fast = report.conflicts(semantics, max_per_file=None)
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
        expected = Counter(
            c.label
            for c in report.conflicts(semantics, max_per_file=None))
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


@given(st.lists(timed_op, min_size=4, max_size=40),
       st.sampled_from((None, 1, 2, 5)))
@settings(max_examples=100, deadline=None)
# the cap keeps a file's earliest *conflicts*: here the earliest
# candidates are cleared by the fsync under commit semantics
@example(ops=[("write", 0, "/a", 0, 10, False),
              ("fsync", 0, "/a", 0, 1, False),
              ("read", 1, "/a", 0, 10, False),
              ("write", 1, "/a", 0, 10, False),
              ("read", 2, "/a", 0, 10, True)], cap=1)
def test_array_set_equals_object_detector(ops, cap):
    report = analyze(build_tied_trace(ops))
    vis, tables = report.visibility, report.tables
    fast_by_model, slow_by_model = {}, {}
    for semantics in Semantics:
        fast = report.conflicts(semantics, max_per_file=cap)
        slow = detect_conflicts_objects(vis, tables, semantics, cap)
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
        counts = Counter(c.label for c in detect_conflicts_objects(
            vis, tables, semantics))
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


@given(st.lists(object_op, min_size=2, max_size=40), first_opens,
       st.sampled_from((None, 1, 3)))
@settings(max_examples=150, deadline=None)
# rank 0 writes /a again after its close, with no new open: the session
# publishes at its *last* access's close, after rank 1's open
@example(ops=[("write", 0, "/a", 0, 4, False),
              ("close", 0, "/a", 0, 1, False),
              ("open", 1, "/a", 0, 1, False),
              ("read", 1, "/a", 0, 4, False),
              ("write", 0, "/a", 0, 4, False)],
         first_open=[0] + [16] * 7, cap=None)
# rank 1 opens /a at the very time rank 0's PUT closes it, and each
# rank's access ties with its own open: nothing is cleared
@example(ops=[("write", 0, "/a", 0, 4, False),
              ("close", 0, "/a", 0, 1, False),
              ("open", 1, "/a", 0, 1, True),
              ("read", 1, "/a", 0, 4, True)],
         first_open=[0] + [16] * 7, cap=None)
def test_object_model_equals_rank_by_rank_oracle(ops, first_open, cap):
    report = analyze(build_object_trace(ops, first_open))
    vis, tables = report.visibility, report.tables
    for path, table in tables.items():
        for fast, slow in zip(_object_sessions(table, vis),
                              object_sessions(table, vis)):
            assert fast.dtype == slow.dtype, path
            assert np.array_equal(fast, slow), path
        for fast, slow in zip(_object_conflict_pairs(table, vis),
                              object_conflict_pairs(table, vis)):
            assert fast.dtype == slow.dtype, path
            assert np.array_equal(fast, slow), path
    fast = report.conflicts(Semantics.OBJECT, max_per_file=cap)
    slow = detect_conflicts_objects(vis, tables, Semantics.OBJECT, cap)
    assert list(fast) == list(slow)
