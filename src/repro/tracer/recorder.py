"""The per-run trace collector.

One :class:`Recorder` instance is shared by all ranks of a simulated run
(safe because the engine runs one rank at a time).  The POSIX/MPI-IO/I-O
library layers call :meth:`record` around each operation; MPI communication
calls :meth:`record_mpi`.  Layer attribution works with a per-rank stack:
entering a library pushes its layer, so any nested call knows who issued it.
Each call appends one tuple to the run's buffer, in call order (every
tuple carries its rank); :meth:`build_trace` aligns, sorts and encodes
the buffer into columns once.
"""

from __future__ import annotations

from typing import Any

from repro.tracer.columnar import encode
from repro.tracer.events import Layer
from repro.tracer.trace import Trace


class _InLayer:
    """The context of :meth:`Recorder.in_layer`: ``layer`` is on top of
    the rank's stack inside the ``with`` block."""

    __slots__ = ("stack", "layer")

    def __init__(self, stack: list[Layer], layer: Layer):
        self.stack = stack
        self.layer = layer

    def __enter__(self) -> None:
        self.stack.append(self.layer)

    def __exit__(self, *exc_info: object) -> None:
        self.stack.pop()


class Recorder:
    """Collects record and MPI-event tuples for a run, in call order."""

    def __init__(self, nranks: int):
        self.nranks = int(nranks)
        self._records: list[tuple] = []
        self._mpi_events: list[tuple] = []
        self._stacks: list[list[Layer]] = [[Layer.APP] for _ in range(nranks)]
        self._origins: list[float | None] = [None] * nranks

    # -- layer attribution -------------------------------------------------------

    def in_layer(self, rank: int, layer: Layer) -> "_InLayer":
        """Mark that ``rank`` is executing inside ``layer`` (re-entrant)."""
        return _InLayer(self._stacks[rank], layer)

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
        records = self._records
        records.append((
            len(records), rank, layer, self._stacks[rank][-1], func,
            tstart, tend, path, fd, offset, count,
            dict(args) if args else None, result, gt_offset))

    def record_mpi(self, rank: int, kind: str, match_key: tuple, role: str,
                   tstart: float, tend: float) -> None:
        events = self._mpi_events
        events.append(
            (len(events), rank, kind, match_key, role, tstart, tend))

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

    def build_trace(self, *, meta: dict[str, Any] | None = None) -> Trace:
        """Produce the immutable aligned trace for analysis.

        Each row's times move back by its rank's origin, and all rows are
        sorted by ``(tstart, rank, id)`` in one vectorized sort, then
        renumbered to their position: ingestion order within a rank is
        kept, so ids become a function of the trace *content*, not of
        interleaving."""
        return encode(self.nranks, self._records, self._mpi_events, meta,
                      origins=self._origins).to_trace()
