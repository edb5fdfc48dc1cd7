"""The report pipeline runs on columns: no per-record objects.

A 20k-op synthetic ``.rtrc`` goes through every :class:`RunReport`
stage while the constructors of :class:`TraceRecord` and
:class:`AccessRecord` count their calls.  Reading the file, ``to_trace``
and every stage must build no ``TraceRecord``, and the conflict sets
may build at most the two ``AccessRecord`` objects each reported
conflict holds.
"""

from collections import Counter

import pytest

from repro.core.records import AccessRecord
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.tracer.columnar import read_rtrc, write_rtrc
from repro.tracer.events import TraceRecord
from repro.tracer.synth import synthetic_columnar_trace

MODELS = (Semantics.SESSION, Semantics.COMMIT, Semantics.EVENTUAL,
          Semantics.OBJECT)


@pytest.fixture
def built(monkeypatch):
    """Counts of objects built per class while the fixture is live."""
    counts: Counter = Counter()
    for cls in (TraceRecord, AccessRecord):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_report_stages_build_no_record_objects(tmp_path, built):
    path = tmp_path / "synth.rtrc"
    write_rtrc(synthetic_columnar_trace(20_000, nranks=4, seed=3), path)

    trace = read_rtrc(path).to_trace()
    assert len(trace.records) == 20_000 + 3 * (4 * 4 + 4)
    report = analyze(trace)
    assert len(report.accesses) > 0
    conflicts = [report.conflicts(model) for model in MODELS]
    report.weakest_sufficient_semantics()
    report.object_store_compatible()
    report.compatible_filesystems()
    report.validate(Semantics.SESSION)
    _ = (report.sharing, report.local_mix, report.global_mix,
         report.metadata, report.metadata_conflicts, report.profile)

    reported = sum(len(cs) for cs in conflicts)
    assert reported > 0
    assert built["TraceRecord"] == 0
    assert built["AccessRecord"] <= 2 * reported
    # the counter does see records that something builds
    assert len(trace.records[:5]) == 5 and built["TraceRecord"] == 5
