"""FLASH proxy (Table 5: 2D Sedov explosion, checkpoint every 20 steps).

FLASH writes HDF5 checkpoint and plot files.  With a fixed block size
("fbs") HDF5 uses collective MPI-IO — only the ~6 collective-buffering
aggregators touch checkpoint data, and roughly half the ranks write small
library metadata at the head of the file (paper Figure 2a–c).  With a
dynamic block size ("nofbs") every rank writes its blocks independently
(Figure 2d–f).

The conflict mechanism of §6.3: FLASH calls ``H5Fflush`` after writing
each dataset.  Each flush rewrites shared metadata (root entry by a fixed
owner → WAW-S, EOA entry by a rotating owner → WAW-D) and then fsyncs.
Under session semantics those rewrites conflict (no close/open pair
between them); under commit semantics the fsync inside the flush is the
commit, so the conflicts disappear — FLASH's Table 4 row.

Fix variants (the paper's one-line changes):

* ``flush_between_datasets=False`` — drop the ``H5Fflush`` calls;
* ``collective_metadata=True`` — let rank 0 perform all metadata I/O.
"""

from __future__ import annotations

from repro.apps.base import AppConfig, compute_step
from repro.iolibs.hdf5lite import H5File
from repro.sim.engine import RankContext

#: dataset names in a FLASH checkpoint (unknowns of the Sedov problem)
CHECKPOINT_DATASETS = ("dens", "pres", "temp", "ener", "velx", "vely",
                       "gamc", "game")
PLOT_DATASETS = ("dens", "pres", "temp", "ener")


def _write_output_file(ctx: RankContext, cfg: AppConfig, path: str,
                       datasets: tuple[str, ...], block_bytes: int,
                       *, rank0_only: bool) -> None:
    fbs = bool(cfg.opt("fbs", True))
    flush_between = bool(cfg.opt("flush_between_datasets", True))
    cb_nodes = int(cfg.opt("cb_nodes", 6))
    # size the collective buffer so each dataset takes ~3 exchange rounds
    # at any rank count (real FLASH datasets span many ROMIO rounds)
    cb_buffer = max(1024, (block_bytes * ctx.nranks) // (cb_nodes * 3))
    h5 = H5File(
        ctx.posix, path, "w", comm=ctx.comm, recorder=ctx.recorder,
        collective_data=fbs,
        collective_metadata=bool(cfg.opt("collective_metadata", False)),
        cb_nodes=cb_nodes, cb_buffer_size=cb_buffer)
    for name in datasets:
        mine = block_bytes if (not rank0_only or ctx.rank == 0) else 0
        total = block_bytes if rank0_only else block_bytes * ctx.nranks
        ds = h5.create_dataset(name, total)
        if fbs:
            offset = 0 if rank0_only else ctx.rank * block_bytes
            h5.write_dataset_all(ds, offset, mine)
        else:
            if mine:
                h5.write_dataset(ds, 0 if rank0_only
                                 else ctx.rank * block_bytes, mine)
            ctx.comm.barrier()
        if flush_between:
            h5.flush()
    h5.close()


def main(ctx: RankContext, cfg: AppConfig) -> None:
    """Run the FLASH proxy: time-step loop with periodic HDF5 checkpoint and plot dumps."""
    steps = int(cfg.opt("steps", 60))
    ckpt_every = int(cfg.opt("checkpoint_every", 20))
    plot_every = int(cfg.opt("plot_every", 20))
    block = int(cfg.opt("block_bytes", 4096))
    ckpt_no = plot_no = 0
    if ctx.rank == 0:
        ctx.posix.mkdir("/flash")
        ctx.posix.mkdir("/flash/ckpt")
        ctx.posix.mkdir("/flash/plot")
    ctx.comm.barrier()
    for step in range(1, steps + 1):
        compute_step(ctx)
        if step % ckpt_every == 0:
            _write_output_file(
                ctx, cfg, f"/flash/ckpt/sedov_hdf5_chk_{ckpt_no:04d}",
                CHECKPOINT_DATASETS, block, rank0_only=False)
            ckpt_no += 1
        if step % plot_every == 0:
            _write_output_file(
                ctx, cfg, f"/flash/plot/sedov_hdf5_plt_cnt_{plot_no:04d}",
                PLOT_DATASETS, block, rank0_only=True)
            plot_no += 1
