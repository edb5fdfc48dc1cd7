"""Miniature ADIOS2 BP-style output engine.

Mechanisms reproduced from the paper:

* M–M aggregation: ranks are grouped; one aggregator per group appends
  everyone's step data to its own subfile (``data.<g>``) inside the
  ``<name>.bp`` directory.
* The global index file ``md.idx`` is maintained by rank 0, which both
  appends a per-step index record *and overwrites a single flag byte at
  offset 0* every step — the 1-byte WAW-S of LAMMPS-ADIOS (Section 6.3).
* Extra metadata traffic: ``mkdir`` for the ``.bp`` directory, ``getcwd``,
  and ``unlink`` of a stale index — the additional metadata operations
  I/O libraries introduce in Figure 3.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.errors import AnalysisError
from repro.mpi.comm import Communicator
from repro.posix import flags as F
from repro.posix.api import PosixAPI
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder

#: the layer of every record an ADIOS stream emits
_LAYER = Layer.ADIOS

IDX_FLAG_SIZE = 1
IDX_RECORD_SIZE = 64


class AdiosStream:
    """One rank's handle on a BP-style output stream."""

    def __init__(self, posix: PosixAPI, comm: Communicator, name: str, *,
                 recorder: Recorder | None = None, ranks_per_group: int = 8):
        self.posix = posix
        self.comm = comm
        self.recorder = recorder
        self.rank = comm.rank
        self.nranks = comm.size
        self.dirpath = f"{name}.bp"
        self.group = self.rank // max(1, ranks_per_group)
        self.ngroups = (self.nranks + ranks_per_group - 1) // ranks_per_group
        self.aggregator = self.group * ranks_per_group
        self.is_aggregator = self.rank == self.aggregator
        # ADIOS builds one sub-communicator per aggregation group
        self.group_comm = comm.split(color=self.group)
        self._step = 0
        self._closed = False
        self.data_fd: int | None = None
        self.idx_fd: int | None = None
        self._clock = posix.ctx.clock
        #: entered around every call the handle issues to a lower layer
        self._in_layer = (nullcontext() if recorder is None else
                          recorder.in_layer(self.rank, _LAYER))

        t0 = self._clock.local_time
        with self._in_layer:
            posix.getcwd()
            if self.rank == 0:
                posix.mkdir(self.dirpath)
                if posix.access(f"{self.dirpath}/md.idx"):
                    posix.unlink(f"{self.dirpath}/md.idx")
            comm.barrier()
            if self.is_aggregator:
                self.data_fd = posix.open(
                    f"{self.dirpath}/data.{self.group}",
                    F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
            if self.rank == 0:
                self.idx_fd = posix.open(
                    f"{self.dirpath}/md.idx",
                    F.O_RDWR | F.O_CREAT | F.O_TRUNC)
                posix.pwrite(self.idx_fd, IDX_FLAG_SIZE, 0)
                # engine lock file, removed again at close (the unlink
                # that LAMMPS picks up from its I/O libraries, Fig. 3)
                lock = posix.open(f"{self.dirpath}/.md.idx.lock",
                                  F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
                posix.close(lock)
        self._record("adios2_open", t0)

    def _record(self, func: str, tstart: float,
                count: int | None = None) -> None:
        if self.recorder is not None:
            self.recorder.record(self.rank, _LAYER, func, tstart,
                                 self._clock.local_time, path=self.dirpath,
                                 count=count)

    def write_step(self, nbytes: int) -> None:
        """One output step: members ship data to the aggregator, the
        aggregator appends to its subfile, rank 0 updates the index."""
        if self._closed:
            raise AnalysisError(f"ADIOS stream {self.dirpath!r} closed")
        t0 = self._clock.local_time
        with self._in_layer:
            # the group gathers its block sizes at the aggregator
            # (sub-rank 0 = the group's lowest world rank)
            sizes = self.group_comm.gather(nbytes, root=0)
            if self.is_aggregator:
                assert self.data_fd is not None
                assert sizes is not None
                for chunk in sizes:
                    self.posix.write(self.data_fd, int(chunk))
            if self.rank == 0:
                assert self.idx_fd is not None
                # append the step's index record...
                self.posix.pwrite(
                    self.idx_fd, IDX_RECORD_SIZE,
                    IDX_FLAG_SIZE + self._step * IDX_RECORD_SIZE)
                # ...then overwrite the 1-byte live flag: the WAW-S of
                # LAMMPS-ADIOS (no commit in between)
                self.posix.pwrite(self.idx_fd, IDX_FLAG_SIZE, 0)
            self.comm.barrier()
        self._step += 1
        self._record("adios2_end_step", t0, count=nbytes)

    def close(self) -> None:
        if self._closed:
            return
        t0 = self._clock.local_time
        with self._in_layer:
            if self.data_fd is not None:
                self.posix.close(self.data_fd)
            if self.idx_fd is not None:
                self.posix.close(self.idx_fd)
                self.posix.unlink(f"{self.dirpath}/.md.idx.lock")
            self.comm.barrier()
        self._closed = True
        self._record("adios2_close", t0)
