"""LAMMPS proxy (Table 5: 2D LJ flow, dump via five I/O backends).

LAMMPS writes the same per-step atom dump through whichever backend is
configured — the paper's key multi-library subject:

* **POSIX** — rank 0 streams the dump file (1-1, consecutive; clean);
* **MPI-IO** — collective ``write_at_all`` per step; aggregators produce
  the M-1 strided pattern (clean);
* **HDF5** — rank 0 writes one dataset per step serially (1-1; clean);
* **NetCDF** — rank 0 appends records; the header's record count is
  rewritten per step → WAW-S (Table 4);
* **ADIOS** — group aggregators write BP subfiles (M-M) and rank 0
  overwrites one byte of ``md.idx`` per step → WAW-S (Table 4).
"""

from __future__ import annotations

from repro.apps.base import AppConfig, compute_step, make_deck_setup, read_input_deck
from repro.iolibs.adioslite import AdiosStream
from repro.iolibs.hdf5lite import H5File
from repro.iolibs.netcdflite import NetCDFFile
from repro.mpiio.file import MPIFile, MPIIOHints
from repro.posix import flags as F
from repro.sim.engine import RankContext


INPUT_DECK = "/lammps/input/in.lj"
setup = make_deck_setup(INPUT_DECK)


def main(ctx: RankContext, cfg: AppConfig) -> None:
    """Run the LAMMPS proxy: LJ time steps with periodic dumps through the configured backend."""
    steps = int(cfg.opt("steps", 100))
    dump_every = int(cfg.opt("dump_every", 20))
    chunk = int(cfg.opt("chunk_bytes", 2048))
    lib = cfg.io_library.upper().replace("-", "")
    px = ctx.posix
    read_input_deck(ctx, INPUT_DECK)
    if ctx.rank == 0:
        px.mkdir("/lammps")
        px.mkdir("/lammps/dump")
    ctx.comm.barrier()

    writer = _make_writer(ctx, cfg, lib, chunk)
    for step in range(1, steps + 1):
        compute_step(ctx)
        if step % dump_every == 0:
            writer.dump(step)
    writer.close()
    ctx.comm.barrier()


def _make_writer(ctx: RankContext, cfg: AppConfig, lib: str, chunk: int):
    if lib == "POSIX":
        return _PosixDump(ctx, chunk)
    if lib == "MPIIO":
        return _MpiioDump(ctx, cfg, chunk)
    if lib == "HDF5":
        return _Hdf5Dump(ctx, chunk)
    if lib == "NETCDF":
        return _NetcdfDump(ctx, chunk)
    if lib == "ADIOS":
        return _AdiosDump(ctx, cfg, chunk)
    raise ValueError(f"unknown LAMMPS I/O backend {cfg.io_library!r}")


class _PosixDump:
    """dump atom: rank 0 gathers coordinates and streams the text file."""

    def __init__(self, ctx: RankContext, chunk: int):
        self.ctx, self.chunk = ctx, chunk
        self.fd = None
        if ctx.rank == 0:
            self.fd = ctx.posix.open("/lammps/dump/dump.lj",
                                     F.O_WRONLY | F.O_CREAT | F.O_TRUNC)

    def dump(self, step: int) -> None:
        data = self.ctx.comm.gather(self.chunk)
        if self.ctx.rank == 0:
            assert self.fd is not None
            for nbytes in data:
                self.ctx.posix.write(self.fd, int(nbytes))

    def close(self) -> None:
        if self.fd is not None:
            self.ctx.posix.close(self.fd)


class _MpiioDump:
    """dump atom/mpiio: every rank contributes; aggregators write (M-1).

    Uses a resized-vector file view (one chunk per rank per step, tiles
    advancing by the full step span), the way real MPI-IO dumps
    decompose the shared file.
    """

    def __init__(self, ctx: RankContext, cfg: AppConfig, chunk: int):
        from repro.mpiio.views import VectorType

        self.ctx, self.chunk = ctx, chunk
        cb_nodes = int(cfg.opt("cb_nodes", max(2, ctx.nranks // 8)))
        # one stripe per aggregator per step: span/cb_nodes bytes each
        cb_buffer = max(512, (chunk * ctx.nranks) // cb_nodes)
        self.f = MPIFile(ctx.comm, ctx.posix, "/lammps/dump/dump.mpiio",
                         MPIFile.MODE_WRONLY | MPIFile.MODE_CREATE,
                         recorder=ctx.recorder,
                         hints=MPIIOHints(cb_nodes=cb_nodes,
                                          cb_buffer_size=cb_buffer))
        self.f.set_view(ctx.rank * chunk, VectorType(
            count=1, blocklength=chunk, stride=chunk * ctx.nranks,
            extent_etypes=chunk * ctx.nranks))

    def dump(self, step: int) -> None:
        self.f.write_all(self.chunk)

    def close(self) -> None:
        self.f.close()


class _Hdf5Dump:
    """dump h5md: rank 0 writes one dataset per dump step (1-1)."""

    def __init__(self, ctx: RankContext, chunk: int):
        self.ctx, self.chunk = ctx, chunk
        self.h5 = None
        if ctx.rank == 0:
            self.h5 = H5File(ctx.posix, "/lammps/dump/dump.h5", "w",
                             recorder=ctx.recorder, header_region=8192)

    def dump(self, step: int) -> None:
        data = self.ctx.comm.gather(self.chunk)
        if self.h5 is not None:
            total = sum(int(n) for n in data)
            ds = self.h5.create_dataset(f"coords/step{step}", total)
            self.h5.write_dataset(ds, 0, total)

    def close(self) -> None:
        if self.h5 is not None:
            self.h5.close()


class _NetcdfDump:
    """dump netcdf: rank 0 appends records; numrecs rewrite -> WAW-S."""

    def __init__(self, ctx: RankContext, chunk: int):
        self.ctx, self.chunk = ctx, chunk
        self.nc = None
        if ctx.rank == 0:
            self.nc = NetCDFFile(ctx.posix, "/lammps/dump/dump.nc",
                                 recorder=ctx.recorder)

    def dump(self, step: int) -> None:
        data = self.ctx.comm.gather(self.chunk)
        if self.nc is not None:
            self.nc.append_record(sum(int(n) for n in data))

    def close(self) -> None:
        if self.nc is not None:
            self.nc.close()


class _AdiosDump:
    """dump atom/adios: BP subfile aggregation + md.idx flag -> WAW-S."""

    def __init__(self, ctx: RankContext, cfg: AppConfig, chunk: int):
        self.ctx, self.chunk = ctx, chunk
        self.stream = AdiosStream(
            ctx.posix, ctx.comm, "/lammps/dump/dump",
            recorder=ctx.recorder,
            ranks_per_group=int(cfg.opt("ranks_per_group",
                                        max(2, ctx.nranks // 8))))

    def dump(self, step: int) -> None:
        self.stream.write_step(self.chunk)

    def close(self) -> None:
        self.stream.close()
