"""The per-run trace collector.

One :class:`Recorder` instance is shared by all ranks of a simulated run
(safe because the engine runs one rank at a time).  The POSIX/MPI-IO/I-O
library layers call :meth:`record` around each operation; MPI communication
calls :meth:`record_mpi`.  Layer attribution works with a per-rank stack:
entering a library pushes its layer, so any nested call knows who issued it.
Each call appends one tuple to its rank's buffer; :meth:`build_trace`
encodes the buffers into columns once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.tracer.columnar import encode
from repro.tracer.events import Layer
from repro.tracer.trace import Trace


class Recorder:
    """Collects record and MPI-event tuples for a run, per rank."""

    def __init__(self, nranks: int):
        self.nranks = int(nranks)
        self._records: list[list[tuple]] = [[] for _ in range(nranks)]
        self._mpi_events: list[list[tuple]] = [[] for _ in range(nranks)]
        self._stacks: list[list[Layer]] = [[Layer.APP] for _ in range(nranks)]
        self._origins: list[float | None] = [None] * nranks
        self._next_rid = 0
        self._next_eid = 0

    # -- layer attribution -------------------------------------------------------

    @contextmanager
    def in_layer(self, rank: int, layer: Layer) -> Iterator[None]:
        """Mark that ``rank`` is executing inside ``layer`` (re-entrant)."""
        stack = self._stacks[rank]
        stack.append(layer)
        try:
            yield
        finally:
            stack.pop()

    def issuer(self, rank: int) -> Layer:
        """The layer currently executing on ``rank`` (who issues new calls)."""
        return self._stacks[rank][-1]

    # -- record ingestion ----------------------------------------------------------

    def record(self, rank: int, layer: Layer, func: str,
               tstart: float, tend: float, *,
               path: str | None = None, fd: int | None = None,
               offset: int | None = None, count: int | None = None,
               args: dict[str, Any] | None = None, result: Any = None,
               gt_offset: int | None = None) -> None:
        """Buffer one call, in :data:`~repro.tracer.columnar.RECORD_FIELDS`
        order; the provisional id is the global call number."""
        self._records[rank].append((
            self._next_rid, rank, layer, self._stacks[rank][-1], func,
            tstart, tend, path, fd, offset, count,
            dict(args) if args else None, result, gt_offset))
        self._next_rid += 1

    def record_mpi(self, rank: int, kind: str, match_key: tuple, role: str,
                   tstart: float, tend: float) -> None:
        self._mpi_events[rank].append(
            (self._next_eid, rank, kind, match_key, role, tstart, tend))
        self._next_eid += 1

    # -- barrier-based timestamp alignment ------------------------------------------

    def set_time_origin(self, rank: int, t_local: float) -> None:
        """Fix ``rank``'s zero point (the exit of the run's first barrier).

        The paper aligns node clocks by performing a barrier at startup and
        treating each rank's barrier-exit local time as ``time = 0``; this
        implements exactly that adjustment.
        """
        if self._origins[rank] is None:
            self._origins[rank] = float(t_local)

    # -- finalization ---------------------------------------------------------------

    def _aligned(self, buffers: list[list[tuple]]) -> list[tuple]:
        """Every rank's tuples, timestamps (fields 5 and 6) moved by the
        rank's origin, sorted by ``(tstart, rank, id)`` and renumbered to
        their position: ingestion order within a rank is kept, so ids
        become a function of the trace *content*, not of interleaving."""
        shift = [-(origin or 0.0) for origin in self._origins]
        rows = sorted(((*row[:5], row[5] + shift[row[1]],
                        row[6] + shift[row[1]], *row[7:])
                       for buffer in buffers for row in buffer),
                      key=lambda row: (row[5], row[1], row[0]))
        return [(i, *row[1:]) for i, row in enumerate(rows)]

    def build_trace(self, *, meta: dict[str, Any] | None = None) -> Trace:
        """Produce the immutable aligned trace for analysis."""
        return encode(self.nranks, self._aligned(self._records),
                      self._aligned(self._mpi_events), meta).to_trace()
