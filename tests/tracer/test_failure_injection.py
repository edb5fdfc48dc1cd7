"""Failure injection: malformed, truncated, and partial traces.

The analysis pipeline must fail loudly on structural corruption
(:class:`TraceError`) and degrade gracefully (strict=False) on partial
captures — both situations real trace collection produces.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro.core.offsets import reconstruct_offsets
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.errors import AnalysisError, TraceError
from repro.tracer.columnar import LAYER_TABLE, read_rtrc, write_rtrc
from repro.tracer.trace import Trace


@pytest.fixture(scope="module")
def sample_trace():
    return repro.run("pF3D-IO", nranks=4)


class TestCorruptedJsonl:
    def write_lines(self, tmp_path, lines):
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_unknown_line_kind(self, tmp_path):
        p = self.write_lines(tmp_path, [
            json.dumps({"_type": "header", "nranks": 1, "meta": {}}),
            json.dumps({"_type": "garbage"}),
        ])
        with pytest.raises(TraceError, match="unknown line kind"):
            Trace.from_jsonl(p)

    def test_missing_header(self, tmp_path):
        p = self.write_lines(tmp_path, [
            json.dumps({"_type": "record", "rid": 0, "rank": 0,
                        "layer": "posix", "issuer": "app",
                        "func": "open", "tstart": 0.0, "tend": 0.1}),
        ])
        with pytest.raises(TraceError, match="no trace header"):
            Trace.from_jsonl(p)

    def test_truncated_file_mid_line(self, tmp_path, sample_trace):
        p = tmp_path / "t.jsonl"
        sample_trace.to_jsonl(p)
        raw = p.read_bytes()
        p.write_bytes(raw[:len(raw) * 2 // 3])  # cut mid-record
        with pytest.raises((TraceError, json.JSONDecodeError)):
            Trace.from_jsonl(p)


class TestPartialTraces:
    def test_records_dropped_from_front(self, sample_trace):
        """A capture that missed the opens (attach-late tracing) skips
        the orphaned data ops in lenient mode and raises in strict."""
        cut = Trace(nranks=sample_trace.nranks,
                    records=[r for r in sample_trace.records
                             if r.func != "open"],
                    mpi_events=sample_trace.mpi_events,
                    meta=sample_trace.meta)
        with pytest.raises(TraceError):
            reconstruct_offsets(cut, strict=True)
        lenient = reconstruct_offsets(cut, strict=False)
        full = reconstruct_offsets(sample_trace)
        # explicit-offset ops (pread/pwrite) survive even without opens
        assert 0 < len(lenient) <= len(full)

    def test_tail_truncation_still_analyzable(self, sample_trace):
        """Dropping the tail (job killed mid-run) leaves a valid,
        analyzable prefix."""
        keep = len(sample_trace.records) * 2 // 3
        cut = Trace(nranks=sample_trace.nranks,
                    records=sample_trace.records[:keep],
                    mpi_events=[e for e in sample_trace.mpi_events
                                if e.tend <= sample_trace
                                .records[keep - 1].tend],
                    meta=sample_trace.meta)
        cut.validate()
        report = analyze(cut)
        assert report.accesses  # pipeline still runs end to end
        report.conflicts(Semantics.SESSION)

    def test_validate_rejects_negative_duration(self, sample_trace):
        records = list(sample_trace.records)
        records[0].tend = records[0].tstart - 1.0
        bad = Trace(nranks=sample_trace.nranks, records=records,
                    meta=sample_trace.meta)
        with pytest.raises(TraceError, match="ends before it starts"):
            bad.validate()

    @pytest.mark.parametrize("field, damaged, message", [
        ("rank", lambda e: 5, "has bad rank 5"),
        ("rank", lambda e: -1, "has bad rank -1"),
        ("tend", lambda e: e.tstart - 1.0, "ends before it starts"),
        ("tstart", lambda e: float("nan"), "has a non-finite time"),
    ], ids=["rank-past-end", "negative-rank", "ends-before-start",
            "nan-start"])
    def test_validate_rejects_bad_mpi_event(self, sample_trace, tmp_path,
                                            field, damaged, message):
        events = list(sample_trace.mpi_events)
        setattr(events[0], field, damaged(events[0]))
        bad = Trace(nranks=sample_trace.nranks,
                    records=sample_trace.records, mpi_events=events,
                    meta=sample_trace.meta)
        expected = f"MPI event {events[0].eid} {message}"
        with pytest.raises(TraceError, match=expected):
            bad.validate()
        with pytest.raises(TraceError, match=expected):
            analyze(bad)
        write_rtrc(bad.columnar, tmp_path / "bad.rtrc")
        with pytest.raises(AnalysisError, match=expected):
            read_rtrc(tmp_path / "bad.rtrc")


@pytest.fixture(scope="module")
def flash_fbs():
    return repro.run("FLASH", io_library="HDF5", variant="fbs", nranks=4)


def _damaged(trace, column, row, value):
    """``trace`` with one cell of one record column replaced."""
    ct = trace.columnar
    cells = ct.columns[column].copy()
    cells[row] = value
    return dataclasses.replace(
        ct, columns={**ct.columns, column: cells}).to_trace()


class TestDamagedRecords:
    """Damage that leaves every column well-typed: each must stop the
    analysis with a one-line diagnosis, on the trace and in ``.rtrc``."""

    def test_record_moved_before_an_earlier_record_of_its_rank(
            self, flash_fbs, tmp_path):
        c = flash_fbs.columnar.columns
        rows = np.flatnonzero(c["rank"] == 2)
        row = int(rows[len(rows) // 2])
        earlier = float(c["tstart"][rows[len(rows) // 2 - 1]])
        bad = _damaged(flash_fbs, "tstart", row, earlier - 1.0)
        expected = (f"record {int(c['rid'][row])} starts before an "
                    f"earlier record of rank 2")
        with pytest.raises(TraceError, match=expected) as err:
            analyze(bad)
        assert "\n" not in str(err.value)
        write_rtrc(bad.columnar, tmp_path / "bad.rtrc")
        with pytest.raises(AnalysisError, match=expected):
            read_rtrc(tmp_path / "bad.rtrc")

    def test_pwrite_on_an_fd_no_open_of_its_rank_returned(
            self, flash_fbs, tmp_path):
        ct = flash_fbs.columnar
        c = ct.columns
        row = int(np.flatnonzero(
            (c["func_id"] == ct.funcs.index("pwrite"))
            & (c["layer_id"] == LAYER_TABLE.index("posix")))[0])
        bad = _damaged(flash_fbs, "fd", row, 999)
        expected = (f"record {int(c['rid'][row])} \\(pwrite\\) uses fd "
                    f"999, which no open of rank {int(c['rank'][row])} "
                    f"returned")
        with pytest.raises(TraceError, match=expected) as err:
            analyze(bad).accesses
        assert "\n" not in str(err.value)
        write_rtrc(bad.columnar, tmp_path / "bad.rtrc")
        with pytest.raises(TraceError, match=expected):
            reconstruct_offsets(read_rtrc(tmp_path / "bad.rtrc").to_trace())
        # the lenient solve takes the fd as it is
        lenient = reconstruct_offsets(bad, strict=False)
        assert len(lenient) == len(reconstruct_offsets(flash_fbs))


class TestAnalyzerRobustness:
    def test_empty_trace(self):
        empty = Trace(nranks=4, records=[], mpi_events=[], meta={})
        report = analyze(empty)
        assert report.accesses == []
        assert not report.conflicts(Semantics.SESSION)
        assert report.sharing == []
        assert report.weakest_sufficient_semantics() is \
            Semantics.EVENTUAL

    def test_metadata_only_trace(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            ctx.posix.mkdir(f"/d{ctx.rank}")
            ctx.posix.stat(f"/d{ctx.rank}")

        h.run(program, align=False)
        report = analyze(h.trace())
        assert report.accesses == []
        assert report.metadata.op_names == ["mkdir", "stat"]

    def test_seek_on_missing_fd_strict(self):
        from repro.tracer.events import Layer
        from repro.tracer.recorder import Recorder

        rec = Recorder(1)
        rec.record(0, Layer.POSIX, "lseek", 0.0, 0.1, path="/f", fd=3,
                   args={"offset": 0, "whence": 0})
        with pytest.raises(TraceError, match="untracked fd"):
            reconstruct_offsets(rec.build_trace())
        assert reconstruct_offsets(rec.build_trace(),
                                   strict=False) == []
