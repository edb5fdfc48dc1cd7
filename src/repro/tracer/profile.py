"""Darshan-style per-file I/O profiling of a trace.

The paper's related work (§2.1) contrasts Recorder-style full tracing
with Darshan-style *characterization* — compact per-file counters kept
instead of full logs.  This module derives exactly those counters from a
trace, so users get the familiar profile view (op counts, byte totals,
access-size histogram, time in I/O, shared-vs-unique file split)
alongside the consistency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.tracer.columnar import I64_NONE
from repro.tracer.events import DATA_OPS, METADATA_OPS, OPEN_OPS, READ_OPS
from repro.tracer.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing-only import (avoids a
    # cycle: repro.core.report imports this module)
    from repro.core.records import AccessTable

#: access-size histogram bucket upper bounds (bytes); last is open-ended
SIZE_BUCKETS = (100, 1024, 10 * 1024, 100 * 1024, 1024 * 1024,
                4 * 1024 * 1024)


def bucket_label(index: int) -> str:
    names = ["0-100", "100-1K", "1K-10K", "10K-100K", "100K-1M",
             "1M-4M", "4M+"]
    return names[index]


def size_bucket(nbytes: int) -> int:
    for i, bound in enumerate(SIZE_BUCKETS):
        if nbytes <= bound:
            return i
    return len(SIZE_BUCKETS)


@dataclass
class FileProfile:
    """Darshan-like counters for one file."""

    path: str
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    metadata_ops: int = 0
    opens: int = 0
    time_in_io: float = 0.0
    ranks: set[int] = field(default_factory=set)
    size_histogram: list[int] = field(
        default_factory=lambda: [0] * (len(SIZE_BUCKETS) + 1))
    max_offset: int = 0

    @property
    def is_shared(self) -> bool:
        return len(self.ranks) > 1


@dataclass
class TraceProfile:
    """Whole-run roll-up."""

    files: dict[str, FileProfile] = field(default_factory=dict)
    wallclock: float = 0.0

    @property
    def shared_files(self) -> list[FileProfile]:
        return [f for f in self.files.values() if f.is_shared]

    @property
    def unique_files(self) -> list[FileProfile]:
        return [f for f in self.files.values() if not f.is_shared]

    @property
    def total_bytes(self) -> tuple[int, int]:
        rd = sum(f.bytes_read for f in self.files.values())
        wr = sum(f.bytes_written for f in self.files.values())
        return rd, wr

    @property
    def time_in_io(self) -> float:
        return sum(f.time_in_io for f in self.files.values())

    def histogram(self) -> list[int]:
        total = [0] * (len(SIZE_BUCKETS) + 1)
        for f in self.files.values():
            for i, n in enumerate(f.size_histogram):
                total[i] += n
        return total

    def to_text(self) -> str:
        from repro.util.formatting import human_bytes, human_time
        from repro.util.tables import AsciiTable

        rd, wr = self.total_bytes
        lines = [
            f"Darshan-style profile: {len(self.files)} files "
            f"({len(self.shared_files)} shared, "
            f"{len(self.unique_files)} rank-unique); "
            f"read {human_bytes(rd)}, wrote {human_bytes(wr)}; "
            f"{human_time(self.time_in_io)} in I/O of "
            f"{human_time(self.wallclock)} wallclock"]
        hist = AsciiTable(["access size", "count"],
                          title="Access-size histogram")
        for i, count in enumerate(self.histogram()):
            if count:
                hist.add_row(bucket_label(i), count)
        lines.append(hist.render())
        table = AsciiTable(["file", "ranks", "reads", "writes",
                            "bytes", "meta ops"],
                           title="Busiest files")
        busiest = sorted(self.files.values(),
                         key=lambda f: -(f.bytes_read + f.bytes_written))
        for f in busiest[:10]:
            table.add_row(f.path, len(f.ranks), f.reads, f.writes,
                          human_bytes(f.bytes_read + f.bytes_written),
                          f.metadata_ops)
        lines.append(table.render())
        return "\n".join(lines)


def profile_trace(trace: Trace,
                  tables: "dict[str, AccessTable] | None" = None
                  ) -> TraceProfile:
    """Build the per-file counter roll-up from a trace's columns.

    Pass the per-file access ``tables`` (from offset reconstruction) to
    also populate ``max_offset``; counters themselves need only the raw
    records.  ``wallclock`` spans the earliest start to the latest end
    of any record.
    """
    ct = trace.columnar
    c = ct.columns
    profile = TraceProfile()
    if ct.nrecords:
        profile.wallclock = float(c["tend"].max() - c["tstart"].min())
    # every touch counts for the shared/unique split: a file opened or
    # stat'd by many ranks but written by one is still shared
    rows = np.flatnonzero(ct.posix_mask() & (c["path_id"] >= 0))
    func_id = c["func_id"][rows]
    count = np.where(c["count"][rows] == I64_NONE, 0, c["count"][rows])
    data = ct.func_lookup(DATA_OPS)[func_id]
    read = data & ct.func_lookup(READ_OPS)[func_id]
    opens = ~data & ct.func_lookup(OPEN_OPS)[func_id]
    meta = ~data & ~opens & ct.func_lookup(METADATA_OPS)[func_id]
    bucket = np.searchsorted(SIZE_BUCKETS, count)
    duration = c["tend"][rows] - c["tstart"][rows]
    pid = c["path_id"][rows]
    order = np.argsort(pid, kind="stable")
    files, starts = np.unique(pid[order], return_index=True)
    # files in first-touch order; each file's rows in trace order
    for f, seg in sorted(zip(files.tolist(), np.split(order, starts[1:])),
                         key=lambda file_rows: file_rows[1][0]):
        path = ct.paths[f]
        n, d, r = count[seg], data[seg], read[seg]
        profile.files[path] = FileProfile(
            path=path, reads=int(np.count_nonzero(r)),
            writes=int(np.count_nonzero(d & ~r)),
            bytes_read=int(n[r].sum()), bytes_written=int(n[d & ~r].sum()),
            metadata_ops=int(np.count_nonzero(meta[seg])),
            opens=int(np.count_nonzero(opens[seg])),
            # summed in trace order, as a running total would
            time_in_io=float(np.cumsum(np.r_[0.0, duration[seg]])[-1]),
            ranks=set(c["rank"][rows][seg].tolist()),
            size_histogram=np.bincount(
                bucket[seg][d], minlength=len(SIZE_BUCKETS) + 1).tolist())

    for path, table in (tables or {}).items():
        fp = profile.files.get(path)
        if fp is not None:
            fp.max_offset = int(table.stop.max(initial=0))
    return profile
