"""Nek5000 proxy (Table 5: eddy solutions, checkpoint every 100 steps).

Rank 0 gathers the spectral-element fields and streams each checkpoint
to its own ``.fld`` file (1-1, consecutive).  Conflict-free.
"""

from __future__ import annotations

from repro.apps.base import AppConfig, compute_step, make_deck_setup, read_input_deck
from repro.posix import flags as F
from repro.sim.engine import RankContext


INPUT_DECK = "/nek5000/input/eddy.rea"
setup = make_deck_setup(INPUT_DECK, nbytes=4096)


def main(ctx: RankContext, cfg: AppConfig) -> None:
    """Run the Nek5000 proxy: time steps with periodic rank-0 .fld checkpoints."""
    steps = int(cfg.opt("steps", 300))
    ckpt_every = int(cfg.opt("checkpoint_every", 100))
    elem_bytes = int(cfg.opt("element_bytes", 4096))
    px = ctx.posix
    read_input_deck(ctx, INPUT_DECK)
    if ctx.rank == 0:
        px.mkdir("/nek5000")
        px.mkdir("/nek5000/fld")
    ctx.comm.barrier()
    ckpt_no = 0
    for step in range(1, steps + 1):
        compute_step(ctx)
        if step % ckpt_every == 0:
            gathered = ctx.comm.gather(elem_bytes)
            if ctx.rank == 0:
                fd = px.open(f"/nek5000/fld/eddy0.f{ckpt_no:05d}",
                             F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
                px.write(fd, 132)  # fld header
                for nbytes in gathered:
                    px.write(fd, int(nbytes))
                px.close(fd)
            ckpt_no += 1
            ctx.comm.barrier()
