"""Trace record types and the POSIX function catalog.

The catalog mirrors Section 5.2 and footnotes 2–3 of the paper:

* *data* operations move file bytes and feed the overlap/conflict analysis;
* *commit* operations (``fsync``/``fdatasync``/``fflush``/``close``/
  ``fclose``) end a commit-semantics visibility window;
* *metadata/utility* operations are the Figure 3 inventory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class Layer(str, enum.Enum):
    """The I/O stack layer a record belongs to (or was issued from)."""

    APP = "app"
    HDF5 = "hdf5"
    NETCDF = "netcdf"
    ADIOS = "adios"
    SILO = "silo"
    MPIIO = "mpiio"
    MPI = "mpi"
    POSIX = "posix"

    def __str__(self) -> str:  # keep table output compact
        return self.value


class OpClass(str, enum.Enum):
    """Coarse classification of a POSIX call for the analyses."""

    READ = "read"
    WRITE = "write"
    OPEN = "open"
    CLOSE = "close"
    SEEK = "seek"
    COMMIT = "commit"      # fsync-family (close also acts as a commit)
    METADATA = "metadata"  # the Figure 3 inventory
    OTHER = "other"

    def __str__(self) -> str:
        return self.value


#: Data-plane operations: the conflict analysis runs on these.
READ_OPS = frozenset({"read", "pread", "pread64", "fread", "readv"})
WRITE_OPS = frozenset({"write", "pwrite", "pwrite64", "fwrite", "writev"})
DATA_OPS = READ_OPS | WRITE_OPS

OPEN_OPS = frozenset({"open", "open64", "fopen", "creat"})
CLOSE_OPS = frozenset({"close", "fclose"})
SEEK_OPS = frozenset({"lseek", "lseek64", "fseek"})

#: The paper's commit test (footnote 2): fsync, fdatasync, fflush, close,
#: fclose all count as commit operations.
COMMIT_OPS = frozenset({"fsync", "fdatasync", "fflush"}) | CLOSE_OPS

#: The metadata/utility operations monitored for Figure 3 (footnote 3).
METADATA_OPS = frozenset({
    "mmap", "mmap64", "msync", "stat", "stat64", "lstat", "lstat64",
    "fstat", "fstat64", "getcwd", "mkdir", "rmdir", "chdir", "link",
    "linkat", "unlink", "symlink", "symlinkat", "readlink", "readlinkat",
    "rename", "chmod", "chown", "lchown", "utime", "opendir", "readdir",
    "closedir", "rewinddir", "mknod", "mknodat", "fcntl", "dup", "dup2",
    "pipe", "mkfifo", "umask", "fileno", "access", "faccessat", "tmpfile",
    "remove", "truncate", "ftruncate",
})


def classify_posix_op(func: str) -> OpClass:
    """Map a POSIX function name to its :class:`OpClass`."""
    if func in READ_OPS:
        return OpClass.READ
    if func in WRITE_OPS:
        return OpClass.WRITE
    if func in OPEN_OPS:
        return OpClass.OPEN
    if func in CLOSE_OPS:
        return OpClass.CLOSE
    if func in SEEK_OPS:
        return OpClass.SEEK
    if func in COMMIT_OPS:
        return OpClass.COMMIT
    if func in METADATA_OPS:
        return OpClass.METADATA
    return OpClass.OTHER


@dataclass
class TraceRecord:
    """One traced call at one layer.

    ``offset`` is only populated for explicit-offset functions
    (``pread``/``pwrite``); for ``read``/``write`` it stays ``None`` and the
    analyzer reconstructs it (Section 5.1).  ``gt_offset`` carries the
    simulator's ground-truth file offset so tests can validate the
    reconstruction — a real Recorder trace would not have it, and no
    analysis code is allowed to read it.
    """

    rid: int
    rank: int
    layer: Layer
    issuer: Layer
    func: str
    tstart: float
    tend: float
    path: str | None = None
    fd: int | None = None
    offset: int | None = None
    count: int | None = None
    args: dict[str, Any] = field(default_factory=dict)
    result: Any = None
    gt_offset: int | None = None

    @property
    def op_class(self) -> OpClass:
        return classify_posix_op(self.func)


@dataclass
class MPIEvent:
    """One matched MPI communication event, for happens-before recovery.

    ``match_key`` ties together the events that synchronize with each
    other: the two halves of a point-to-point message share one key; all
    participants of a collective share one key.  ``kind`` is the MPI
    function; ``role`` distinguishes sender/receiver/root/member.
    """

    eid: int
    rank: int
    kind: str
    match_key: tuple
    role: str
    tstart: float
    tend: float
