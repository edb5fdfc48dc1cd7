"""Property tests: the array conflict classifier equals the per-pair
binary-search oracle, the array conflict set equals the object-building
detector, and the counting path equals detection."""

from collections import Counter

from hypothesis import example, given, settings

from repro.core.conflicts import count_conflicts
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
from tests.core.reference import detect_conflicts_objects, reference_conflicts
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
