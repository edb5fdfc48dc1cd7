"""A miniature HDF5: just enough structure to reproduce the paper's findings.

File layout (simplified but structurally faithful):

* ``[0, 96)`` — superblock, written once when the file is created.
* ``[96, 160)`` — root-group symbol-table entry.  Dirtied by every dataset
  creation, written at every ``H5Fflush``/close by a *fixed* metadata
  owner → the WAW-S conflicts of FLASH.
* ``[160, 224)`` — end-of-allocation (EOA) message.  Written at every
  flush by a *rotating* owner → the WAW-D conflicts of FLASH.
* ``[224, header_region)`` — per-dataset object headers plus auxiliary
  metadata (symbol-table node, local heap, B-tree node).  Written
  *immediately* at ``H5Dcreate`` by writers spread over half the ranks —
  which is why ~30 of 64 processes appear in metadata writes in the
  paper's Figure 2, and why reopening a dataset causes ENZO's RAW-S
  (the library reads back a header it wrote, with no commit between).
* ``[header_region, ...)`` — dataset raw data, allocated contiguously.

Consistency-relevant behaviour:

* ``H5Fflush`` writes dirty shared metadata then has **every** rank
  ``fsync`` — the flush *is* the commit, so FLASH's flush-induced
  conflicts exist under session semantics but vanish under commit
  semantics, exactly as in Table 4.
* ``collective_metadata=True`` routes all metadata writes to rank 0 —
  the paper's suggested one-line fix.
* ``flush_between_datasets=False`` models the other suggested fix
  (dropping ``H5Fflush``; metadata then goes out once, at close).

In parallel mode every rank holds a mirrored :class:`H5File`; allocation
decisions are deterministic, so no shared library state is needed (which
is also how the analysis sees real HDF5: only through its I/O).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.mpi.comm import Communicator
from repro.mpiio.file import MPIFile, MPIIOHints
from repro.posix import flags as F
from repro.posix.api import PosixAPI
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder

#: the layer of every record an HDF5 handle emits
_LAYER = Layer.HDF5

SUPERBLOCK = (0, 96)
ROOT_ENTRY = (96, 64)
EOA_ENTRY = (160, 64)
FIRST_DSET_SLOT = 224
META_SLOT_SIZE = 64
#: auxiliary metadata pieces written at each H5Dcreate (object header,
#: symbol-table node, local-heap entry, B-tree node)
PIECES_PER_CREATE = 4


@dataclass
class H5Dataset:
    """Handle to a contiguous dataset extent inside an :class:`H5File`."""

    name: str
    offset: int       # absolute file offset of the raw data
    nbytes: int       # allocated size
    header_slot: int  # absolute offset of its object header


@dataclass
class H5ChunkedDataset:
    """Handle to a chunked dataset: extents allocated append-at-EOA.

    Chunked layout is what real HDF5 uses for extensible datasets; each
    appended chunk lands wherever the end of allocation currently is, so
    chunks of different datasets interleave in the file — one source of
    the "random" accesses the paper attributes to HDF5 (§6.2.1).  Every
    append also rewrites the dataset's B-tree index node (a small
    metadata write to a fixed slot, with no commit in between — a
    same-process WAW, which is why chunked writers need commit-capable
    file systems or the §6.3-style fixes).
    """

    name: str
    chunk_bytes: int
    header_slot: int
    index_slot: int
    chunks: list[int] = field(default_factory=list)  # file offsets

    @property
    def nbytes(self) -> int:
        return len(self.chunks) * self.chunk_bytes


class H5File:
    """One rank's view of an HDF5 file (serial or parallel)."""

    def __init__(self, posix: PosixAPI, path: str, mode: str = "w", *,
                 comm: Communicator | None = None,
                 recorder: Recorder | None = None,
                 collective_data: bool = True,
                 collective_metadata: bool = False,
                 cb_nodes: int = 0,
                 cb_buffer_size: int | None = None,
                 header_region: int = 4096):
        if mode not in ("w", "r"):
            raise AnalysisError(f"H5File mode must be 'w' or 'r', not {mode!r}")
        self.posix = posix
        self.path = path
        self.mode = mode
        self.comm = comm
        self.recorder = recorder
        self.collective_data = collective_data
        self.collective_metadata = collective_metadata
        self.header_region = header_region
        # posix.rank is the global rank (trace attribution); in parallel
        # mode the communicator is the world communicator, so it also
        # indexes the metadata-owner logic.
        self.rank = posix.rank
        self.nranks = 1 if comm is None else comm.size
        self.datasets: dict[str, H5Dataset] = {}
        self._meta_cursor = FIRST_DSET_SLOT
        self._data_cursor = header_region
        self._flush_count = 0
        self._dirty = False
        self._closed = False
        self.mpifile: MPIFile | None = None
        self.fd: int | None = None
        self._clock = posix.ctx.clock
        #: entered around every call the handle issues to a lower layer
        self._in_layer = (nullcontext() if recorder is None else
                          recorder.in_layer(self.rank, _LAYER))

        t0 = self._clock.local_time
        with self._in_layer:
            if comm is None:
                if mode == "w":
                    # HDF5 probes the target before creating it...
                    posix.access(path)
                    self.fd = posix.open(
                        path, F.O_RDWR | F.O_CREAT | F.O_TRUNC)
                    # ...and stats it to seed its metadata cache (the
                    # lstat/fstat pair the paper observes for
                    # ParaDiS-HDF5 in Figure 3)
                    posix.lstat(path)
                    posix.fstat(self.fd)
                    # superblock
                    posix.pwrite(self.fd, SUPERBLOCK[1], SUPERBLOCK[0])
                else:
                    posix.lstat(path)
                    self.fd = posix.open(path, F.O_RDONLY)
                    posix.fstat(self.fd)
                    posix.pread(self.fd, SUPERBLOCK[1], SUPERBLOCK[0])
            else:
                amode = (F.O_RDWR | F.O_CREAT if mode == "w"
                         else F.O_RDONLY)
                if self.rank == 0:
                    if mode == "w":
                        posix.access(path)
                    else:
                        posix.lstat(path)
                hints = (MPIIOHints(cb_nodes=cb_nodes)
                         if cb_buffer_size is None else
                         MPIIOHints(cb_nodes=cb_nodes,
                                    cb_buffer_size=cb_buffer_size))
                self.mpifile = MPIFile(comm, posix, path, amode,
                                       recorder=recorder, hints=hints)
                if self.rank == 0:
                    posix.lstat(path)
                    posix.fstat(self.mpifile.fd)
                if mode == "w":
                    if self.rank == 0:
                        self.mpifile.write_at(SUPERBLOCK[0], SUPERBLOCK[1])
                elif self.rank == 0:
                    self.mpifile.read_at(SUPERBLOCK[0], SUPERBLOCK[1])
                comm.barrier()
        self._record("H5Fcreate" if mode == "w" else "H5Fopen", t0)

    # -- plumbing -----------------------------------------------------------

    def _record(self, func: str, tstart: float, *, count: int | None = None,
                args: dict | None = None) -> None:
        if self.recorder is not None:
            self.recorder.record(self.rank, _LAYER, func, tstart,
                                 self._clock.local_time, path=self.path,
                                 count=count, args=args)

    def _meta_owner(self, slot_index: int) -> int:
        """The rank that writes metadata piece ``slot_index``, in O(1).

        Real parallel HDF5 flushes dirty metadata-cache entries from
        whichever processes own them; the paper observes roughly half of
        the 64 ranks participating.  We model the owners as the
        even-numbered ranks, taking pieces round-robin (or rank 0 alone
        in collective-metadata mode, or the one rank without a
        communicator).
        """
        if self.comm is None:
            return self.rank
        if self.collective_metadata:
            return 0
        return 2 * (slot_index % ((self.nranks + 1) // 2))

    def _write_meta(self, offset: int, nbytes: int, slot_index: int) -> None:
        """Write one metadata piece; only its owner touches the file."""
        owner = self._meta_owner(slot_index)
        if self.comm is None:
            self.posix.pwrite(self.fd, nbytes, offset)
        elif self.rank == owner:
            assert self.mpifile is not None
            self.mpifile.write_at(offset, nbytes)

    def _read_meta(self, offset: int, nbytes: int) -> None:
        if self.comm is None:
            self.posix.pread(self.fd, nbytes, offset)
        elif self.rank == 0:
            assert self.mpifile is not None
            self.mpifile.read_at(offset, nbytes)

    def _check_open(self) -> None:
        if self._closed:
            raise AnalysisError(f"HDF5 file {self.path!r} already closed")

    # -- dataset lifecycle ------------------------------------------------------

    def create_dataset(self, name: str, nbytes: int) -> H5Dataset:
        """Allocate a dataset (collective in parallel mode).

        Writes ``PIECES_PER_CREATE`` small metadata pieces immediately,
        each by its owning rank, and dirties the shared root/EOA entries
        for the next flush.
        """
        self._check_open()
        if name in self.datasets:
            raise AnalysisError(f"dataset {name!r} already exists")
        t0 = self._clock.local_time
        header_slot = self._meta_cursor
        with self._in_layer:
            for piece in range(PIECES_PER_CREATE):
                slot = self._meta_cursor
                slot_index = (slot - FIRST_DSET_SLOT) // META_SLOT_SIZE
                self._write_meta(slot, META_SLOT_SIZE, slot_index)
                self._meta_cursor += META_SLOT_SIZE
                if self._meta_cursor > self.header_region:
                    raise AnalysisError(
                        f"metadata region exhausted in {self.path!r}")
            if self.comm is not None:
                self.comm.barrier()
        ds = H5Dataset(name=name, offset=self._data_cursor, nbytes=nbytes,
                       header_slot=header_slot)
        self._data_cursor += nbytes
        self.datasets[name] = ds
        self._dirty = True
        self._record("H5Dcreate", t0, args={"name": name, "nbytes": nbytes})
        return ds

    def create_chunked_dataset(self, name: str,
                               chunk_bytes: int) -> H5ChunkedDataset:
        """Create an extensible (chunked) dataset.

        Allocates the object header pieces immediately (like
        :meth:`create_dataset`) plus a B-tree index node that every
        chunk append will rewrite.
        """
        self._check_open()
        if name in self.datasets:
            raise AnalysisError(f"dataset {name!r} already exists")
        t0 = self._clock.local_time
        header_slot = self._meta_cursor
        with self._in_layer:
            for piece in range(PIECES_PER_CREATE):
                slot = self._meta_cursor
                slot_index = (slot - FIRST_DSET_SLOT) // META_SLOT_SIZE
                self._write_meta(slot, META_SLOT_SIZE, slot_index)
                self._meta_cursor += META_SLOT_SIZE
                if self._meta_cursor > self.header_region:
                    raise AnalysisError(
                        f"metadata region exhausted in {self.path!r}")
            index_slot = self._meta_cursor
            self._meta_cursor += META_SLOT_SIZE
            if self.comm is not None:
                self.comm.barrier()
        ds = H5ChunkedDataset(name=name, chunk_bytes=chunk_bytes,
                              header_slot=header_slot,
                              index_slot=index_slot)
        self.datasets[name] = ds
        self._dirty = True
        self._record("H5Dcreate", t0,
                     args={"name": name, "layout": "chunked",
                           "chunk_bytes": chunk_bytes})
        return ds

    def append_chunk(self, ds: H5ChunkedDataset,
                     data: "bytes | int | None" = None) -> int:
        """Write the dataset's next chunk at the end of allocation.

        Serial/independent only (each append allocates file space, so a
        collective variant would need allocation coordination; real
        parallel HDF5 restricts chunked writes similarly).  Returns the
        chunk's file offset.
        """
        self._check_open()
        if ds.name not in self.datasets:
            raise AnalysisError(f"unknown dataset {ds.name!r}")
        t0 = self._clock.local_time
        if data is None:
            data = ds.chunk_bytes
        if isinstance(data, int):
            data = self.posix.payload(data)
        if len(data) > ds.chunk_bytes:
            raise AnalysisError(
                f"chunk data ({len(data)} B) exceeds chunk size "
                f"({ds.chunk_bytes} B)")
        offset = self._data_cursor
        self._data_cursor += ds.chunk_bytes
        with self._in_layer:
            if self.comm is None:
                self.posix.pwrite(self.fd, data, offset)
                # B-tree index node rewrite (same slot every time)
                self.posix.pwrite(self.fd, META_SLOT_SIZE, ds.index_slot)
            else:
                assert self.mpifile is not None
                self.mpifile.write_at(offset, data)
                if self.rank == self._meta_owner(
                        (ds.index_slot - FIRST_DSET_SLOT)
                        // META_SLOT_SIZE):
                    self.mpifile.write_at(ds.index_slot, META_SLOT_SIZE)
        ds.chunks.append(offset)
        self._dirty = True
        self._record("H5Dwrite", t0, count=len(data),
                     args={"name": ds.name, "xfer": "chunked"})
        return offset

    def read_chunk(self, ds: H5ChunkedDataset, index: int) -> bytes:
        """Read one previously written chunk."""
        self._check_open()
        if not (0 <= index < len(ds.chunks)):
            raise AnalysisError(
                f"chunk {index} of {ds.name!r} not written yet")
        t0 = self._clock.local_time
        with self._in_layer:
            # the library consults the B-tree index first
            self._read_meta(ds.index_slot, META_SLOT_SIZE)
            if self.comm is None:
                data = self.posix.pread(self.fd, ds.chunk_bytes,
                                        ds.chunks[index])
            else:
                assert self.mpifile is not None
                data = self.mpifile.read_at(ds.chunks[index],
                                            ds.chunk_bytes)
        self._record("H5Dread", t0, count=len(data),
                     args={"name": ds.name})
        return data

    def open_dataset(self, name: str) -> H5Dataset:
        """Reopen a dataset: the library reads back the object header.

        When the header was written earlier in this same session with no
        intervening commit, this is exactly the RAW-S conflict the paper
        reports for ENZO.
        """
        self._check_open()
        ds = self.datasets.get(name)
        if ds is None:
            raise AnalysisError(f"no dataset {name!r} in {self.path!r}")
        t0 = self._clock.local_time
        with self._in_layer:
            self._read_meta(ds.header_slot, META_SLOT_SIZE)
        self._record("H5Dopen", t0, args={"name": name})
        return ds

    # -- data plane ---------------------------------------------------------------

    def write_dataset(self, ds: H5Dataset, offset: int,
                      data: "bytes | int") -> int:
        """Independent write of ``data`` at ``offset`` within the dataset."""
        self._check_open()
        t0 = self._clock.local_time
        if isinstance(data, int):
            data = self.posix.payload(data)
        with self._in_layer:
            if self.comm is None:
                n = self.posix.pwrite(self.fd, data, ds.offset + offset)
            else:
                assert self.mpifile is not None
                n = self.mpifile.write_at(ds.offset + offset, data)
        self._dirty = True
        self._record("H5Dwrite", t0, count=n,
                     args={"name": ds.name, "xfer": "independent"})
        return n

    def write_dataset_all(self, ds: H5Dataset, offset: int,
                          nbytes: int) -> int:
        """Collective write: every rank contributes its slab (0 = none)."""
        self._check_open()
        if self.comm is None:
            raise AnalysisError("collective write requires a communicator")
        t0 = self._clock.local_time
        data = self.posix.payload(nbytes) if nbytes else b""
        with self._in_layer:
            assert self.mpifile is not None
            self.mpifile.write_at_all(ds.offset + offset, data)
        self._dirty = True
        self._record("H5Dwrite", t0, count=nbytes,
                     args={"name": ds.name, "xfer": "collective"})
        return nbytes

    def read_dataset(self, ds: H5Dataset, offset: int, nbytes: int) -> bytes:
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            if self.comm is None:
                data = self.posix.pread(self.fd, nbytes, ds.offset + offset)
            else:
                assert self.mpifile is not None
                data = self.mpifile.read_at(ds.offset + offset, nbytes)
        self._record("H5Dread", t0, count=len(data), args={"name": ds.name})
        return data

    # -- flush / close ----------------------------------------------------------------

    def flush(self) -> None:
        """``H5Fflush``: write dirty shared metadata, then fsync everywhere.

        The root entry has a fixed owner (WAW-S across flushes under
        session semantics); the EOA entry's owner rotates per flush
        (WAW-D).  The trailing fsync is the commit that removes both
        conflicts under commit semantics.
        """
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            if self._dirty and self.mode == "w":
                root_idx = 0
                self._write_root_and_eoa(root_idx)
            if self.comm is None:
                self.posix.fsync(self.fd)
            else:
                assert self.mpifile is not None
                self.mpifile.sync()
            self._dirty = False
        self._flush_count += 1
        self._record("H5Fflush", t0)

    def _write_root_and_eoa(self, root_idx: int) -> None:
        root_owner = self._meta_owner(root_idx)
        eoa_owner = self._meta_owner(1 + self._flush_count)
        if self.comm is None:
            self.posix.pwrite(self.fd, ROOT_ENTRY[1], ROOT_ENTRY[0])
            self.posix.pwrite(self.fd, EOA_ENTRY[1], EOA_ENTRY[0])
            return
        assert self.mpifile is not None
        if self.rank == root_owner:
            self.mpifile.write_at(ROOT_ENTRY[0], ROOT_ENTRY[1])
        if self.rank == eoa_owner:
            self.mpifile.write_at(EOA_ENTRY[0], EOA_ENTRY[1])

    def close(self) -> None:
        """``H5Fclose``: final metadata write-out, truncate to EOA, close."""
        self._check_open()
        t0 = self._clock.local_time
        with self._in_layer:
            if self._dirty and self.mode == "w":
                self._write_root_and_eoa(0)
                self._dirty = False
            if self.comm is None:
                if self.mode == "w":
                    self.posix.ftruncate(self.fd, self._data_cursor)
                self.posix.close(self.fd)
            else:
                assert self.mpifile is not None
                if self.mode == "w" and self.rank == 0:
                    self.posix.ftruncate(self.mpifile.fd, self._data_cursor)
                self.mpifile.close()
        self._closed = True
        self._record("H5Fclose", t0)
