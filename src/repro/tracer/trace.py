"""Immutable trace container with filtering, stats, and (de)serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import TraceError
from repro.tracer.events import (
    DATA_OPS,
    Layer,
    MPIEvent,
    OpClass,
    TraceRecord,
)


@dataclass
class Trace:
    """A finished, time-aligned trace of one application run.

    ``records`` are all layer records sorted by ``(tstart, rank, rid)``;
    ``mpi_events`` are the matched communication events used to rebuild the
    happens-before order.  ``meta`` carries run identity (application name,
    I/O library, rank count, options) used by reports and table builders.
    """

    nranks: int
    records: list[TraceRecord]
    mpi_events: list[MPIEvent] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    # -- filtering ------------------------------------------------------------

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def filter(self, pred: Callable[[TraceRecord], bool]) -> list[TraceRecord]:
        # lint: allow-per-op-loop (Trace is the object-form container)
        return [r for r in self.records if pred(r)]

    def layer_records(self, layer: Layer) -> list[TraceRecord]:
        return self.filter(lambda r: r.layer == layer)

    @property
    def posix_records(self) -> list[TraceRecord]:
        """Bottom-of-stack records: what actually reached the file system."""
        return self.layer_records(Layer.POSIX)

    @property
    def posix_data_records(self) -> list[TraceRecord]:
        return self.filter(
            lambda r: r.layer == Layer.POSIX and r.func in DATA_OPS)

    def records_for_rank(self, rank: int) -> list[TraceRecord]:
        return self.filter(lambda r: r.rank == rank)

    @property
    def paths(self) -> list[str]:
        """All file paths touched by POSIX records, in first-touch order."""
        seen: dict[str, None] = {}
        # lint: allow-per-op-loop (Trace is the object-form container)
        for r in self.records:
            if r.layer == Layer.POSIX and r.path is not None:
                seen.setdefault(r.path, None)
        return list(seen)

    @property
    def data_paths(self) -> list[str]:
        """Paths with at least one POSIX read/write."""
        seen: dict[str, None] = {}
        for r in self.posix_data_records:
            if r.path is not None:
                seen.setdefault(r.path, None)
        return list(seen)

    # -- stats -----------------------------------------------------------------

    def function_counts(self, layer: Layer | None = None) -> dict[str, int]:
        counts: dict[str, int] = {}
        # lint: allow-per-op-loop (Trace is the object-form container)
        for r in self.records:
            if layer is None or r.layer == layer:
                counts[r.func] = counts.get(r.func, 0) + 1
        return counts

    def bytes_moved(self) -> tuple[int, int]:
        """(bytes read, bytes written) at the POSIX layer."""
        rd = wr = 0
        for r in self.posix_data_records:
            n = int(r.count or 0)
            if r.op_class == OpClass.READ:
                rd += n
            else:
                wr += n
        return rd, wr

    def ranks_touching(self, path: str) -> set[int]:
        return {r.rank for r in self.posix_data_records if r.path == path}

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Cheap structural sanity checks; raises :class:`TraceError`."""
        # lint: allow-per-op-loop (Trace is the object-form container)
        for r in self.records:
            if not (0 <= r.rank < self.nranks):
                raise TraceError(f"record {r.rid} has bad rank {r.rank}")
            if r.tend < r.tstart:
                raise TraceError(f"record {r.rid} ends before it starts")
            if r.func in DATA_OPS and r.layer == Layer.POSIX:
                if r.count is None or r.count < 0:
                    raise TraceError(
                        f"data record {r.rid} ({r.func}) lacks a byte count")

    # -- (de)serialization ----------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        """Write the trace as JSON lines (one header, then records/events)."""
        p = Path(path)
        with p.open("w") as fh:
            fh.write(json.dumps({
                "_type": "header", "nranks": self.nranks,
                "meta": self.meta,
            }) + "\n")
            # lint: allow-per-op-loop (JSONL serialization is per-record)
            for r in self.records:
                d = dict(r.__dict__)
                d["_type"] = "record"
                d["layer"] = r.layer.value
                d["issuer"] = r.issuer.value
                fh.write(json.dumps(d, default=str) + "\n")
            for e in self.mpi_events:
                d = dict(e.__dict__)
                d["_type"] = "mpi"
                d["match_key"] = list(e.match_key)
                fh.write(json.dumps(d, default=str) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Trace":
        p = Path(path)
        nranks = 0
        meta: dict[str, Any] = {}
        records: list[TraceRecord] = []
        events: list[MPIEvent] = []
        with p.open() as fh:
            for line in fh:
                d = json.loads(line)
                kind = d.pop("_type")
                if kind == "header":
                    nranks = d["nranks"]
                    meta = d["meta"]
                elif kind == "record":
                    d["layer"] = Layer(d["layer"])
                    d["issuer"] = Layer(d["issuer"])
                    records.append(TraceRecord(**d))
                elif kind == "mpi":
                    d["match_key"] = tuple(
                        tuple(x) if isinstance(x, list) else x
                        for x in d["match_key"])
                    events.append(MPIEvent(**d))
                else:
                    raise TraceError(f"unknown line kind {kind!r} in {p}")
        if nranks <= 0:
            raise TraceError(f"{p} has no trace header")
        return cls(nranks=nranks, records=records, mpi_events=events,
                   meta=meta)


def concat_traces(traces: Iterable[Trace]) -> Trace:
    """Concatenate traces of the same width (e.g. per-phase captures)."""
    traces = list(traces)
    if not traces:
        raise TraceError("cannot concatenate zero traces")
    nranks = traces[0].nranks
    if any(t.nranks != nranks for t in traces):
        raise TraceError("traces have differing rank counts")
    # lint: allow-per-op-loop (merging object-form traces)
    records = [r for t in traces for r in t.records]
    events = [e for t in traces for e in t.mpi_events]
    records.sort(key=lambda r: (r.tstart, r.rank, r.rid))
    events.sort(key=lambda e: (e.tstart, e.rank, e.eid))
    meta = dict(traces[0].meta)
    return Trace(nranks=nranks, records=records, mpi_events=events, meta=meta)
