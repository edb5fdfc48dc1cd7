"""End-to-end robustness: serialization round-trips preserve analysis
results, and a larger-scale run keeps the paper's shapes."""

import pytest

import repro
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.study.runner import cell_summary
from repro.tracer.trace import Trace


class TestSerializationRoundtrip:
    @pytest.mark.parametrize("app,lib", [("FLASH", "HDF5"),
                                         ("LAMMPS", "ADIOS")])
    def test_analysis_identical_after_jsonl_roundtrip(self, tmp_path,
                                                      app, lib):
        trace = repro.run(app, io_library=lib, nranks=4)
        path = tmp_path / "run.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)

        original = analyze(trace)
        restored = analyze(loaded)
        for semantics in (Semantics.SESSION, Semantics.COMMIT):
            assert original.conflicts(semantics).flags == \
                restored.conflicts(semantics).flags
        assert [a.offset for a in original.accesses] == \
            [a.offset for a in restored.accesses]
        assert original.sharing[0].xy(4) == restored.sharing[0].xy(4)
        assert original.weakest_sufficient_semantics() is \
            restored.weakest_sufficient_semantics()


class TestLargerScale:
    """One 32-rank configuration per conflict class, to guard the
    scale-independence claim beyond the 4/8/16 integration tests."""

    def test_flash_at_32_ranks(self):
        report = analyze(repro.run("FLASH", io_library="HDF5",
                                   nranks=32, options={"steps": 40}))
        flags = report.conflicts(Semantics.SESSION).flags
        assert flags["WAW-S"] and flags["WAW-D"]
        assert not report.conflicts(Semantics.COMMIT)
        primary = report.sharing[0]
        assert primary.xy(32) == "M-1"
        assert str(primary.pattern) == "strided cyclic"

    @pytest.mark.parametrize("label,count", [
        # one shared checkpoint file: 2p(p-1) WAW-D pairs
        ("Ckpt-IO-POSIX shared", 50_880),
        # two restart files, p(p-1)/2 WAW-D pairs each
        ("ParaDiS-POSIX", 25_440)])
    def test_object_conflicts_are_counted_in_full_at_160_ranks(
            self, variant_by_label, label, count):
        """A cell counts every whole-object pair, though each of these
        files holds more than 10,000 of them."""
        cell = cell_summary(variant_by_label[label], nranks=160, seed=7)
        assert cell["conflicts"]["object"]["count"] == count

    def test_clean_app_at_32_ranks(self):
        report = analyze(repro.run("VPIC-IO", nranks=32))
        assert not report.conflicts(Semantics.SESSION)
        assert report.sharing[0].xy(32) == "M-1"
