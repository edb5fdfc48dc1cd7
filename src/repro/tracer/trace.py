"""The trace view: a read-only window onto a :class:`ColumnarTrace`."""

from __future__ import annotations

import json
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.errors import TraceError
from repro.tracer.columnar import (
    EVENT_FIELDS,
    I64_NONE,
    LAYER_TABLE,
    RECORD_FIELDS,
    ColumnarTrace,
    RowView,
    build_events,
    build_records,
    encode,
)
from repro.tracer.events import (
    DATA_OPS,
    READ_OPS,
    Layer,
    MPIEvent,
    TraceRecord,
)

_record_tuple = attrgetter(*RECORD_FIELDS)
_event_tuple = attrgetter(*EVENT_FIELDS)


class Trace:
    """A finished, time-aligned trace of one application run.

    A thin read-only view over its :attr:`columnar` form.  ``records``
    (all layers, sorted by ``(tstart, rank, rid)``) and ``mpi_events``
    (for the happens-before order) are sequences whose items are built
    on demand.  ``meta`` carries run identity.  Built from record and
    event objects, a ``Trace`` encodes them once, in the given order;
    :meth:`ColumnarTrace.to_trace` wraps existing columns.
    """

    __slots__ = ("columnar",)

    def __init__(self, nranks: int,
                 records: Iterable[TraceRecord] = (),
                 mpi_events: Iterable[MPIEvent] = (),
                 meta: dict[str, Any] | None = None):
        self.columnar = encode(nranks, map(_record_tuple, records),
                               map(_event_tuple, mpi_events), meta)

    @classmethod
    def view(cls, ct: ColumnarTrace) -> "Trace":
        """Wrap ``ct`` without copying."""
        trace = cls.__new__(cls)
        trace.columnar = ct
        return trace

    @property
    def nranks(self) -> int:
        return self.columnar.nranks

    @property
    def meta(self) -> dict[str, Any]:
        return self.columnar.meta

    @property
    def records(self) -> RowView:
        """The :class:`TraceRecord` rows, built on demand."""
        return RowView(self.columnar.nrecords,
                       partial(build_records, self.columnar))

    @property
    def mpi_events(self) -> RowView:
        """The :class:`MPIEvent` rows, built on demand."""
        return RowView(self.columnar.nevents,
                       partial(build_events, self.columnar))

    # -- filtering ------------------------------------------------------------

    def _mask(self, layer: Layer | None = None, funcs=None) -> np.ndarray:
        """Rows of ``layer`` (any when ``None``) calling one of ``funcs``
        (any when ``None``)."""
        c = self.columnar.columns
        mask = np.ones(self.columnar.nrecords, dtype=bool)
        if layer is not None:
            mask &= c["layer_id"] == LAYER_TABLE.index(layer.value)
        if funcs is not None:
            mask &= self.columnar.func_lookup(funcs)[c["func_id"]]
        return mask

    def _rows(self, mask: np.ndarray) -> list[TraceRecord]:
        return build_records(self.columnar, np.flatnonzero(mask))

    def layer_records(self, layer: Layer) -> list[TraceRecord]:
        return self._rows(self._mask(layer))

    @property
    def posix_records(self) -> list[TraceRecord]:
        """Bottom-of-stack records: what actually reached the file system."""
        return self._rows(self._mask(Layer.POSIX))

    @property
    def posix_data_records(self) -> list[TraceRecord]:
        return self._rows(self._mask(Layer.POSIX, DATA_OPS))

    @property
    def data_paths(self) -> list[str]:
        """Paths with at least one POSIX read/write, in first-touch order."""
        ids = self.columnar.columns["path_id"][
            self._mask(Layer.POSIX, DATA_OPS)]
        unique, first = np.unique(ids[ids >= 0], return_index=True)
        return [self.columnar.paths[i]
                for i in unique[np.argsort(first)].tolist()]

    # -- stats -----------------------------------------------------------------

    def function_counts(self, layer: Layer | None = None) -> dict[str, int]:
        """Calls per function, in first-call order."""
        ids = self.columnar.columns["func_id"][self._mask(layer)]
        unique, first, counts = np.unique(ids, return_index=True,
                                          return_counts=True)
        order = np.argsort(first)
        return dict(zip([self.columnar.funcs[f]
                         for f in unique[order].tolist()],
                        counts[order].tolist()))

    def bytes_moved(self) -> tuple[int, int]:
        """(bytes read, bytes written) at the POSIX layer."""
        data = self._mask(Layer.POSIX, DATA_OPS)
        count = self.columnar.columns["count"]
        count = np.where(data & (count != I64_NONE), count, 0)
        read = self._mask(funcs=READ_OPS)
        return int(count[read].sum()), int(count[~read].sum())

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Structural sanity checks (:meth:`ColumnarTrace.validate`);
        a bad record raises :class:`TraceError`."""
        self.columnar.validate()

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
