"""HACC-IO proxy (Table 5: CORAL HACC I/O kernel).

HACC-IO captures HACC's checkpoint/analysis output in both its POSIX and
MPI-IO modes.  In both, every rank writes its own particle file with
large consecutive writes (N-N, consecutive in Table 3); the MPI-IO mode
opens per-rank files on ``MPI_COMM_SELF`` and uses independent
``MPI_File_write_at``.  Conflict-free.
"""

from __future__ import annotations

from typing import Any

from repro.apps.base import AppConfig
from repro.mpiio.file import MPIFile
from repro.sim.engine import RankContext

#: per-particle payload: 8 variables (x,y,z,vx,vy,vz,phi,id)
VARIABLES = 8


class _SelfComm:
    """A size-1 communicator (MPI_COMM_SELF) for per-rank MPI-IO files."""

    def __init__(self, rank: int):
        self.rank = 0
        self.size = 1
        self.world_rank = rank

    def barrier(self) -> None:
        return None

    def allgather(self, payload: Any, combine=None) -> Any:
        return [payload] if combine is None else combine([payload])


def main(ctx: RankContext, cfg: AppConfig) -> None:
    """Run the HACC-IO proxy: per-rank particle dumps via POSIX or MPI_COMM_SELF MPI-IO."""
    particles = int(cfg.opt("particles_per_rank", 8))
    particle_bytes = int(cfg.opt("particle_bytes", 4096))
    use_mpiio = cfg.io_library.upper().replace("-", "") == "MPIIO"
    px = ctx.posix
    if ctx.rank == 0:
        px.mkdir("/haccio")
        px.mkdir("/haccio/parts")
    ctx.comm.barrier()
    path = f"/haccio/parts/hacc_out.{ctx.rank:05d}"
    if use_mpiio:
        f = MPIFile(_SelfComm(ctx.rank), px, path,
                    MPIFile.MODE_WRONLY | MPIFile.MODE_CREATE,
                    recorder=ctx.recorder)
        offset = 0
        for var in range(VARIABLES):
            for _ in range(particles):
                f.write_at(offset, particle_bytes)
                offset += particle_bytes
        f.close()
    else:
        from repro.posix import flags as F
        fd = px.open(path, F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
        for _ in range(VARIABLES * particles):
            px.write(fd, particle_bytes)
        px.close(fd)
    ctx.comm.barrier()
