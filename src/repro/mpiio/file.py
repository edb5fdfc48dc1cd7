"""MPI-IO file handles with independent and two-phase collective access.

Every MPI-IO call is recorded at the ``mpiio`` layer, and the POSIX calls
it issues are attributed to ``mpiio`` via the tracer's layer stack — so
the analysis can tell library-generated accesses from application ones,
as Recorder does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Sequence

from repro.errors import MPIError
from repro.mpi.comm import Communicator
from repro.mpiio.views import FileView, VectorType
from repro.posix import flags as F
from repro.posix.api import PosixAPI
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder

#: the layer of every record an MPI-IO handle emits
_LAYER = Layer.MPIIO


@dataclass
class MPIIOHints:
    """The subset of ROMIO hints that shape access patterns.

    ``cb_nodes`` is the number of collective-buffering aggregator ranks;
    ``cb_buffer_size`` caps how many bytes an aggregator writes per POSIX
    call (large exchanges become several consecutive writes, as ROMIO's
    do).
    """

    cb_nodes: int = 0  # 0 = auto: one aggregator per 8 ranks, min 1
    # Scaled to simulator workloads (real ROMIO uses MiBs); only the ratio
    # to application request sizes matters for pattern shapes.
    cb_buffer_size: int = 64 << 10

    def resolved_cb_nodes(self, nranks: int) -> int:
        if self.cb_nodes > 0:
            return min(self.cb_nodes, nranks)
        return max(1, nranks // 8)


def _exchange_plan(gathered: list[tuple[tuple[int, bytes], ...]]
                   ) -> tuple[tuple[int, ...], tuple[int, ...],
                              tuple[tuple[int, bytes], ...]]:
    """One collective write's contributions, sorted once for every
    aggregator to bisect: the start offsets, the running maximum of the
    ends, and the non-empty ``(offset, data)`` extents, in
    offset-then-rank order."""
    parts = tuple(sorted((p for extents in gathered for p in extents
                          if p[1]), key=itemgetter(0)))
    starts = tuple(o for o, _ in parts)
    ends = tuple(accumulate((o + len(d) for o, d in parts), max))
    return starts, ends, parts


class MPIFile:
    """One rank's handle on a collectively opened file."""

    #: open modes (subset of MPI_MODE_*)
    MODE_RDONLY = F.O_RDONLY
    MODE_WRONLY = F.O_WRONLY
    MODE_RDWR = F.O_RDWR
    MODE_CREATE = F.O_CREAT

    def __init__(self, comm: Communicator, posix: PosixAPI, path: str,
                 amode: int, recorder: Recorder | None = None,
                 hints: MPIIOHints | None = None):
        self.comm = comm
        self.posix = posix
        self.path = path
        self.recorder = recorder
        self.hints = hints or MPIIOHints()
        self.view = FileView()
        self._view_pointer = 0
        self.rank = comm.rank          # position within the communicator
        self.trace_rank = posix.rank   # global rank, for trace attribution
        self.nranks = comm.size
        self._closed = False
        self._clock = posix.ctx.clock
        #: entered around every POSIX call the handle issues
        self._in_layer = (nullcontext() if recorder is None else
                          recorder.in_layer(self.trace_rank, _LAYER))
        t0 = self._clock.local_time
        with self._in_layer:
            self.fd = posix.open(path, amode)
        self.comm.barrier()
        self._record("MPI_File_open", t0)

    # -- plumbing -------------------------------------------------------------

    @classmethod
    def open(cls, comm: Communicator, posix: PosixAPI, path: str,
             amode: int, recorder: Recorder | None = None,
             hints: MPIIOHints | None = None) -> "MPIFile":
        """Collective open (every rank of ``comm`` must call)."""
        return cls(comm, posix, path, amode, recorder, hints)

    def _record(self, func: str, tstart: float, *, offset: int | None = None,
                count: int | None = None) -> None:
        if self.recorder is not None:
            self.recorder.record(self.trace_rank, _LAYER, func, tstart,
                                 self._clock.local_time, path=self.path,
                                 fd=self.fd, offset=offset, count=count)

    def _check_open(self) -> None:
        if self._closed:
            raise MPIError(f"file {self.path!r} already closed")

    @property
    def aggregator_ranks(self) -> list[int]:
        """Evenly spaced collective-buffering aggregators."""
        n_agg = self.hints.resolved_cb_nodes(self.nranks)
        return [round(i * self.nranks / n_agg) for i in range(n_agg)]

    def _aggregator_index(self) -> tuple[int | None, int]:
        """This rank's position in :attr:`aggregator_ranks` (``None``
        when it is not an aggregator) and the aggregator count, in O(1).

        Aggregator ``i`` sits at ``round(i * nranks / n_agg)``, more
        than one rank from the next, so only an ``i`` within one of
        ``rank * n_agg / nranks`` can sit at this rank."""
        n_agg = self.hints.resolved_cb_nodes(self.nranks)
        guess = round(self.rank * n_agg / self.nranks)
        for i in (guess - 1, guess, guess + 1):
            if 0 <= i < n_agg and round(i * self.nranks / n_agg) == self.rank:
                return i, n_agg
        return None, n_agg

    # -- independent operations ------------------------------------------------

    def write_at(self, offset: int, data: "bytes | int") -> int:
        self._check_open()
        t0 = self._clock.local_time
        if isinstance(data, int):
            data = self.posix.payload(data)
        with self._in_layer:
            n = self.posix.pwrite(self.fd, data, offset)
        self._record("MPI_File_write_at", t0, offset=offset, count=n)
        return n

    def read_at(self, offset: int, count: int) -> bytes:
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            data = self.posix.pread(self.fd, count, offset)
        self._record("MPI_File_read_at", t0, offset=offset, count=len(data))
        return data

    def write(self, data: "bytes | int") -> int:
        """Independent write at the file pointer (shared per handle)."""
        self._check_open()
        t0 = self._clock.local_time
        if isinstance(data, int):
            data = self.posix.payload(data)
        with self._in_layer:
            n = self.posix.write(self.fd, data)
        self._record("MPI_File_write", t0, count=n)
        return n

    def read(self, count: int) -> bytes:
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            data = self.posix.read(self.fd, count)
        self._record("MPI_File_read", t0, count=len(data))
        return data

    def seek(self, offset: int, whence: int = F.SEEK_SET) -> int:
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            pos = self.posix.lseek(self.fd, offset, whence)
        self._record("MPI_File_seek", t0, offset=offset)
        return pos

    # -- file views --------------------------------------------------------------

    def set_view(self, displacement: int,
                 filetype: VectorType | None = None) -> None:
        """``MPI_File_set_view``: subsequent view-relative operations
        address the file through ``filetype`` tiles starting at
        ``displacement``.  Resets the view pointer."""
        self._check_open()
        t0 = self._clock.local_time
        self.view = FileView(displacement=displacement,
                             filetype=filetype)
        self._view_pointer = 0
        self._record("MPI_File_set_view", t0, offset=displacement)

    def write_all(self, data: "bytes | int") -> int:
        """Collective write at the view pointer: each rank's bytes land
        at the strided file positions its view exposes."""
        self._check_open()
        t0 = self._clock.local_time
        if isinstance(data, int):
            data = self.posix.payload(data)
        data = bytes(data)
        runs = self.view.resolve(self._view_pointer, len(data))
        extents = []
        cursor = 0
        for off, n in runs:
            extents.append((int(off), data[cursor:cursor + n]))
            cursor += n
        self._view_pointer += len(data)
        self._exchange_and_write(self.comm.allgather(
            tuple(extents), combine=_exchange_plan))
        self.comm.barrier()
        self._record("MPI_File_write_all", t0, count=len(data))
        return len(data)

    # -- collective operations ----------------------------------------------------

    def write_at_all(self, offset: int, data: "bytes | int") -> int:
        """Two-phase collective write.

        All ranks must call; each contributes one (offset, data) extent
        (pass ``b""``/0 to contribute nothing).  Contributions are
        exchanged, and each aggregator writes the coalesced runs of its
        file domain with large consecutive ``pwrite`` calls.
        """
        self._check_open()
        t0 = self._clock.local_time
        if isinstance(data, int):
            data = self.posix.payload(data)
        self._exchange_and_write(self.comm.allgather(
            ((int(offset), bytes(data)),), combine=_exchange_plan))
        self.comm.barrier()
        self._record("MPI_File_write_at_all", t0, offset=offset,
                     count=len(data))
        return len(data)

    def write_at_all_vector(
            self, extents: Sequence[tuple[int, "bytes | int"]]) -> int:
        """Collective write where each rank contributes several extents
        (the effect of a strided file view)."""
        self._check_open()
        t0 = self._clock.local_time
        mine = []
        total = 0
        for off, data in extents:
            if isinstance(data, int):
                data = self.posix.payload(data)
            mine.append((int(off), bytes(data)))
            total += len(data)
        self._exchange_and_write(self.comm.allgather(
            tuple(mine), combine=_exchange_plan))
        self.comm.barrier()
        self._record("MPI_File_write_at_all", t0, count=total)
        return total

    def _exchange_and_write(self, plan) -> None:
        """Phase two of two-phase I/O, with ROMIO-style file domains.

        ``plan`` is the collective's :func:`_exchange_plan` of every
        rank's contributed ``(offset, data)`` extents.  A rank that is
        not an aggregator has nothing to write and returns at once.

        The global extent ``[lo, hi)`` is striped round-robin over the
        aggregators in units of ``cb_buffer_size``: in exchange round
        ``k``, aggregator ``m`` owns
        ``[lo + (k*n_agg + m)*cb, +cb)``.  Each aggregator therefore
        issues a sequence of large writes separated by a constant stride
        of ``(n_agg-1)*cb`` within one collective call — the
        "strided cyclic" per-process signature the paper reports for
        collective-I/O applications (Table 3) — or a single write when
        one round suffices.  Each stripe bisects to the parts that can
        reach it.
        """
        my_index, n_agg = self._aggregator_index()
        if my_index is None:
            return  # not an aggregator: nothing to write in phase two
        starts, ends, parts = plan
        if not parts:
            return
        lo, hi = starts[0], ends[-1]
        cb = self.hints.cb_buffer_size
        with self._in_layer:
            round_no = 0
            while True:
                stripe_lo = lo + (round_no * n_agg + my_index) * cb
                if stripe_lo >= hi:
                    break
                stripe_hi = min(stripe_lo + cb, hi)
                # parts before `first` end by stripe_lo; parts from
                # `last` on start at or after stripe_hi
                first = bisect_right(ends, stripe_lo)
                last = bisect_left(starts, stripe_hi)
                self._write_stripe(parts[first:last], stripe_lo, stripe_hi)
                round_no += 1

    def _write_stripe(self, parts: Sequence[tuple[int, bytes]],
                      stripe_lo: int, stripe_hi: int) -> None:
        """Coalesce contributions clipped to one stripe and write the runs."""
        runs: list[tuple[int, bytearray]] = []
        for off, data in parts:
            a = max(off, stripe_lo)
            b = min(off + len(data), stripe_hi)
            if a >= b:
                continue
            piece = data[a - off:b - off]
            if runs and a <= runs[-1][0] + len(runs[-1][1]):
                run_off, buf = runs[-1]
                end = a + len(piece)
                if end > run_off + len(buf):
                    buf.extend(b"\x00" * (end - run_off - len(buf)))
                # later contribution wins on overlap (iteration order is
                # offset-then-rank order, so this is deterministic)
                buf[a - run_off:a - run_off + len(piece)] = piece
            else:
                runs.append((a, bytearray(piece)))
        for off, buf in runs:
            self.posix.pwrite(self.fd, bytes(buf), off)

    def read_at_all(self, offset: int, count: int) -> bytes:
        """Collective read; data is served with large aggregator reads."""
        self._check_open()
        t0 = self._clock.local_time
        wants: list[tuple[int, int]] = self.comm.allgather(
            (int(offset), int(count)))
        i, n_agg = self._aggregator_index()
        live = ([(o, c) for o, c in wants if c > 0] if i is not None
                else None)
        if live:
            lo = min(o for o, _ in live)
            hi = max(o + c for o, c in live)
            dom_lo = lo + ((hi - lo) * i) // n_agg
            dom_hi = lo + ((hi - lo) * (i + 1)) // n_agg
            if dom_hi > dom_lo:
                with self._in_layer:
                    self.posix.pread(self.fd, dom_hi - dom_lo, dom_lo)
        self.comm.barrier()
        # Aggregator exchange is modelled by the barrier; every rank then
        # has its bytes — serve them from the shared VFS for correctness.
        data = b""
        if count > 0:
            inode = self.posix.fds.get(self.fd).inode
            data = self.posix.vfs.read_at(inode, offset, count,
                                          self._clock.local_time)
        self._record("MPI_File_read_at_all", t0, offset=offset,
                     count=len(data))
        return data

    # -- sync / close --------------------------------------------------------------

    def sync(self) -> None:
        """Collective MPI_File_sync: every rank fsyncs its descriptor."""
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            self.posix.fsync(self.fd)
        self.comm.barrier()
        self._record("MPI_File_sync", t0)

    def close(self) -> None:
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            self.posix.close(self.fd)
        self.comm.barrier()
        self._closed = True
        self._record("MPI_File_close", t0)
