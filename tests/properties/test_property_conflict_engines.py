"""Property tests: the array conflict classifier equals the per-pair
binary-search oracle, and the counting path equals detection."""

from collections import Counter

from hypothesis import given, settings

from repro.core.conflicts import count_conflicts
from repro.core.report import analyze
from repro.core.semantics import Semantics
from tests.core.reference import reference_conflicts
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
