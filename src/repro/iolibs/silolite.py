"""Miniature Silo multifile ("poor man's parallel I/O") writer.

MACSio's Silo mode maps N ranks onto M group files with baton passing:
the first member of a group creates the file, each member in turn writes
its mesh block and updates the table of contents, closes the file, and
hands the baton to the next member.

Consistency-relevant mechanisms (Table 4, MACSio row):

* within one member's turn the TOC is written twice (directory entry
  placeholder at block start, final entry after the block) with no commit
  in between → WAW-S;
* *between* members the file is closed by the writer and opened by the
  next, so cross-process overlapping TOC writes are session-clean — which
  is why MACSio shows only the S variant.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.errors import AnalysisError
from repro.mpi.comm import Communicator
from repro.posix import flags as F
from repro.posix.api import PosixAPI
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder

#: the layer of every record a Silo group writer emits
_LAYER = Layer.SILO

TOC_SIZE = 512


class SiloGroupWriter:
    """One rank's participation in an M-file Silo dump series."""

    def __init__(self, posix: PosixAPI, comm: Communicator, basename: str, *,
                 nfiles: int, recorder: Recorder | None = None):
        if nfiles < 1:
            raise AnalysisError(f"nfiles must be >= 1, got {nfiles}")
        self.posix = posix
        self.comm = comm
        self.recorder = recorder
        self.basename = basename
        self.rank = comm.rank
        self.nranks = comm.size
        self.nfiles = min(nfiles, self.nranks)
        self.group = self.rank % self.nfiles          # round-robin grouping
        self._members = [r for r in range(self.nranks)
                         if r % self.nfiles == self.group]
        self._turn = self._members.index(self.rank)
        self._dump = 0
        self._clock = posix.ctx.clock
        #: entered around every call the handle issues to a lower layer
        self._in_layer = (nullcontext() if recorder is None else
                          recorder.in_layer(self.rank, _LAYER))

    def _record(self, func: str, tstart: float, path: str,
                count: int | None = None) -> None:
        if self.recorder is not None:
            self.recorder.record(self.rank, _LAYER, func, tstart,
                                 self._clock.local_time, path=path,
                                 count=count)

    def _path(self) -> str:
        return f"{self.basename}.{self.group}.silo"

    def write_dump(self, block_bytes: int) -> None:
        """One dump: every member of my group writes, baton-ordered."""
        path = self._path()
        group_size = len(self._members)
        # wait for the baton (the previous member's close notification)
        if self._turn > 0:
            self.comm.recv(self._members[self._turn - 1], tag=1000 + self.group)

        t0 = self._clock.local_time
        with self._in_layer:
            if self._turn == 0 and self._dump == 0:
                self.posix.stat("/")  # silo probes the target directory
                fd = self.posix.open(path,
                                     F.O_RDWR | F.O_CREAT | F.O_TRUNC)
            else:
                fd = self.posix.open(path, F.O_RDWR)
            # TOC placeholder entry for this block (first TOC write)
            self.posix.pwrite(fd, TOC_SIZE, 0)
            # the mesh block itself, strided by (dump, turn) position
            slot = self._dump * group_size + self._turn
            self.posix.pwrite(fd, block_bytes, TOC_SIZE + slot * block_bytes)
            # final TOC entry (second TOC write -> WAW-S, no commit between)
            self.posix.pwrite(fd, TOC_SIZE, 0)
            self.posix.close(fd)
        self._record("DBPutQuadmesh", t0, path, count=block_bytes)

        # pass the baton
        if self._turn + 1 < group_size:
            self.comm.send(self._members[self._turn + 1], self._dump,
                           tag=1000 + self.group)
        self._dump += 1
        self.comm.barrier()
