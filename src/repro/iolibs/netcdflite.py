"""Miniature NetCDF (classic format) writer.

The consistency-relevant mechanism (Section 6.3): the classic NetCDF
header contains a ``numrecs`` count that the library rewrites after every
appended record, with no intervening commit — a same-process WAW that
persists under both session and commit semantics (LAMMPS-NetCDF's row in
Table 4).
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.errors import AnalysisError
from repro.posix import flags as F
from repro.posix.api import PosixAPI
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder

#: the layer of every record a NetCDF file emits
_LAYER = Layer.NETCDF

HEADER_SIZE = 256
NUMRECS_OFFSET = 4
NUMRECS_SIZE = 4


class NetCDFFile:
    """Serial classic-format NetCDF file (header + record variables)."""

    def __init__(self, posix: PosixAPI, path: str,
                 recorder: Recorder | None = None):
        self.posix = posix
        self.path = path
        self.recorder = recorder
        self.rank = posix.rank
        self._nrecs = 0
        self._closed = False
        self._clock = posix.ctx.clock
        #: entered around every call the handle issues to a lower layer
        self._in_layer = (nullcontext() if recorder is None else
                          recorder.in_layer(self.rank, _LAYER))
        t0 = self._clock.local_time
        with self._in_layer:
            # real netCDF checks the target location before creating
            posix.access(path)
            posix.getcwd()
            self.fd = posix.open(path, F.O_RDWR | F.O_CREAT | F.O_TRUNC)
            # full header, including the initial numrecs field
            posix.pwrite(self.fd, HEADER_SIZE, 0)
        self._record("nc_create", t0)

    def _record(self, func: str, tstart: float,
                count: int | None = None) -> None:
        if self.recorder is not None:
            self.recorder.record(self.rank, _LAYER, func, tstart,
                                 self._clock.local_time, path=self.path,
                                 count=count)

    def append_record(self, nbytes: int) -> None:
        """Write one record's data, then bump ``numrecs`` in the header."""
        if self._closed:
            raise AnalysisError(f"NetCDF file {self.path!r} already closed")
        t0 = self._clock.local_time
        with self._in_layer:
            offset = HEADER_SIZE + self._nrecs * nbytes
            self.posix.pwrite(self.fd, nbytes, offset)
            # header update: the WAW-S mechanism
            self.posix.pwrite(self.fd, NUMRECS_SIZE, NUMRECS_OFFSET)
        self._nrecs += 1
        self._record("nc_put_vara", t0, count=nbytes)

    def close(self) -> None:
        if self._closed:
            return
        t0 = self._clock.local_time
        with self._in_layer:
            self.posix.close(self.fd)
        self._closed = True
        self._record("nc_close", t0)
