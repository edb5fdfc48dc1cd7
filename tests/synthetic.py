"""Synthetic multi-rank MPI programs for property tests.

A *script* is a list of op codes, one per slot; every rank runs the same
script, so each op either involves all ranks symmetrically or pairs rank
``2k`` with rank ``2k+1``.  The ops mix file I/O, racing ``O_CREAT``
opens, point-to-point sends, ``ANY_SOURCE`` fan-in, rooted collectives
and barriers, and a barrier closes every slot, so any script is
deadlock-free at an even rank count of at least 4.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.mpi.comm import ANY_SOURCE, ReduceOp

O_CREAT_RDWR = 64 | 2

#: op codes a slot may hold
N_OPS = 7
#: most slots a drawn script has
N_SLOTS = 4

scripts = st.lists(st.integers(0, N_OPS - 1), min_size=1, max_size=N_SLOTS)


def make_program(script):
    """Build a deterministic ``(ctx, cfg)`` program from op codes."""

    def program(ctx, cfg):
        px, comm, rank = ctx.posix, ctx.comm, ctx.rank
        for slot, op in enumerate(script):
            if op == 0:  # file-per-rank write
                fd = px.open(f"/data/s{slot}-r{rank}.dat", O_CREAT_RDWR)
                px.pwrite(fd, bytes([slot]) * 128, 0)
                px.close(fd)
            elif op == 1:  # racing creates + strided shared writes
                fd = px.open(f"/data/shared-{slot}.dat", O_CREAT_RDWR)
                px.pwrite(fd, bytes([rank % 256]) * 64, 64 * rank)
                px.close(fd)
            elif op == 2:  # neighbor exchange: even sends, odd recvs
                if rank % 2 == 0:
                    comm.send(rank + 1, {"slot": slot, "from": rank})
                else:
                    comm.recv(rank - 1)
            elif op == 3:  # fan-in to rank 0 via ANY_SOURCE
                if rank == 0:
                    for _ in range(cfg.nranks - 1):
                        comm.recv(ANY_SOURCE, tag=slot)
                else:
                    comm.send(0, bytes([rank % 256]), tag=slot)
            elif op == 4:  # rooted collective (rotating root)
                comm.reduce(rank + slot, ReduceOp.SUM,
                            root=slot % cfg.nranks)
            elif op == 5:  # bcast from a fixed non-zero root
                comm.bcast({"slot": slot} if rank == 3 else None, root=3)
            else:  # barrier
                comm.barrier()
            comm.barrier()  # slot boundary keeps scripts deadlock-free

    return program


def setup(fs, cfg) -> None:
    """Create the directory every script writes under."""
    fs.makedirs("/data")
