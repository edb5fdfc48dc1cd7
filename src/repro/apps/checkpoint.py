"""Checkpoint/restart proxies: the three dump strategies of §5.

The paper frames checkpointing as *the* workload whose correctness
hangs on file-system semantics, so these proxies exercise the three
canonical strategies over identical payloads:

* ``shared`` — **N-1 shared file**: every rank writes its slab into one
  checkpoint file per step at a rank-strided offset, rank 0 owns a
  header block, and restart reads the header plus the rank's own final
  slab.  Barriers order the steps, so session semantics suffices — but
  every step is a window of *concurrent sessions against one object*,
  which makes the strategy incompatible with whole-object PUT/GET
  stores (the detector's OBJECT model flags it; Table 1's POSIX chain
  does not).
* ``fpp`` — **N-N file per process**: each rank writes a fresh per-step
  file and rank 0 publishes a manifest after the closing barrier.
  Every object has exactly one writer and every read opens after the
  writer's close, so the run is clean under *all* five models — the
  object-native way to checkpoint.
* ``wal`` — **iFast-style host-side write-ahead log**: checkpoint
  records are acknowledged by an append to a rank-local WAL (fast,
  host-side durability) and flushed to immutable segment objects
  *asynchronously* by virtual-time callbacks
  (:meth:`~repro.sim.engine.SimEngine.schedule`).  The flush daemon is
  modelled inside the rank: a scheduled callback marks a batch due and
  notifies the wait key ``("wal", rank)``, and the rank drains due
  batches at its next step boundary.  At shutdown the rank parks on
  that key until every flush timer has fired.  Because the ack races
  the flush, chaos replays can kill a server mid-flush;
  :mod:`repro.faults.walcheck` then audits acked-but-unflushed loss.

The WAL layout is deliberately simple so the audit can reason about it:
rank ``r`` appends ``record_bytes`` per step to ``wal_dir/r<r>.wal``,
and every flush writes one *new* segment object under ``seg_dir`` whose
size is the number of records it absorbs times ``record_bytes``.
Segment coverage is therefore the running sum of segment sizes, in
trace order, per rank.  All layout knobs ride in the variant options so
they land in ``trace.meta["options"]`` for downstream tools.
"""

from __future__ import annotations

from repro.apps.base import AppConfig, compute_step
from repro.posix import flags as F
from repro.sim.engine import RankContext

#: default layout knobs, mirrored in the registry options so every
#: trace's ``meta["options"]`` is self-describing
WAL_DIR = "/ckpt/wal"
SEG_DIR = "/ckpt/segments"


def wal_path(wal_dir: str, rank: int) -> str:
    """The rank-local write-ahead log file."""
    return f"{wal_dir}/r{rank:04d}.wal"


def segment_path(seg_dir: str, rank: int, batch: int) -> str:
    """The immutable segment object absorbing one flush batch."""
    return f"{seg_dir}/r{rank:04d}_b{batch:03d}.seg"


def main_shared(ctx: RankContext, cfg: AppConfig) -> None:
    """N-1 shared-file checkpointing with a header block and restart."""
    steps = int(cfg.opt("steps", 4))
    nbytes = int(cfg.opt("record_bytes", 4096))
    header = int(cfg.opt("header_bytes", 512))
    path = str(cfg.opt("shared_path", "/ckpt/shared/ckpt.chk"))
    px = ctx.posix
    if ctx.rank == 0:
        px.mkdir("/ckpt")
        px.mkdir("/ckpt/shared")
    ctx.comm.barrier()
    for step in range(steps):
        compute_step(ctx)
        fd = px.open(path, F.O_WRONLY | F.O_CREAT)
        if ctx.rank == 0 and step == 0:
            px.pwrite(fd, header, 0)
        off = header + (step * ctx.nranks + ctx.rank) * nbytes
        px.pwrite(fd, nbytes, off)
        px.close(fd)
        ctx.comm.barrier()
    # restart: every rank reads the header and its own final slab; the
    # writers' sessions all closed before the barrier, so the reads are
    # ordered under session (and commit) semantics
    fd = px.open(path, F.O_RDONLY)
    px.pread(fd, header, 0)
    px.pread(fd, nbytes,
             header + ((steps - 1) * ctx.nranks + ctx.rank) * nbytes)
    px.close(fd)
    ctx.comm.barrier()


def main_fpp(ctx: RankContext, cfg: AppConfig) -> None:
    """N-N file-per-rank checkpointing with a rank-0 manifest."""
    steps = int(cfg.opt("steps", 4))
    nbytes = int(cfg.opt("record_bytes", 4096))
    chunks = int(cfg.opt("chunks", 4))
    out_dir = str(cfg.opt("fpp_dir", "/ckpt/fpp"))
    px = ctx.posix
    if ctx.rank == 0:
        px.mkdir("/ckpt")
        px.mkdir(out_dir)
        px.mkdir("/ckpt/manifest")
    ctx.comm.barrier()
    for step in range(steps):
        compute_step(ctx)
        # a fresh object per (rank, step): single writer, never reopened
        fd = px.open(f"{out_dir}/s{step:03d}_r{ctx.rank:04d}.ckpt",
                     F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
        for _ in range(chunks):
            px.write(fd, nbytes // chunks)
        px.close(fd)
        ctx.comm.barrier()
    if ctx.rank == 0:
        # published only after every checkpoint closed: readers that
        # see the manifest see complete objects, on any store
        fd = px.open("/ckpt/manifest/MANIFEST",
                     F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
        px.write(fd, 16 * ctx.nranks)
        px.close(fd)
    ctx.comm.barrier()
    # restart: read the manifest, then the rank's own final checkpoint
    fd = px.open("/ckpt/manifest/MANIFEST", F.O_RDONLY)
    px.read(fd, 16 * ctx.nranks)
    px.close(fd)
    fd = px.open(f"{out_dir}/s{steps - 1:03d}_r{ctx.rank:04d}.ckpt",
                 F.O_RDONLY)
    px.pread(fd, nbytes, 0)
    px.close(fd)
    ctx.comm.barrier()


def main_wal(ctx: RankContext, cfg: AppConfig) -> None:
    """iFast-style WAL: ack locally, flush segments asynchronously."""
    steps = int(cfg.opt("steps", 6))
    nbytes = int(cfg.opt("record_bytes", 2048))
    flush_every = int(cfg.opt("flush_every", 2))
    flush_delay = float(cfg.opt("flush_delay", 150e-6))
    wal_dir = str(cfg.opt("wal_dir", WAL_DIR))
    seg_dir = str(cfg.opt("seg_dir", SEG_DIR))
    px = ctx.posix
    if ctx.rank == 0:
        px.mkdir("/ckpt")
        px.mkdir(wal_dir)
        px.mkdir(seg_dir)
    ctx.comm.barrier()
    fd_wal = px.open(wal_path(wal_dir, ctx.rank),
                     F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
    due: list[tuple[int, float]] = []   # (batch, fire time), FIFO
    flushed = [0]
    scheduled = 0
    pending = 0                          # records absorbed, not batched

    def flush_segment(batch: int, records: int) -> None:
        fd = px.open(segment_path(seg_dir, ctx.rank, batch),
                     F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
        px.write(fd, records * nbytes)
        px.close(fd)    # the PUT: the segment becomes durable here

    def drain() -> None:
        while due:
            batch, t_due = due.pop(0)
            # the daemon wakes when the timer fires; model the elapsed
            # wall time by advancing the rank past the due point
            dt = t_due - ctx.clock.true_time
            if dt > 0:
                ctx.clock.advance(dt)
            flush_segment(batch, flush_every)
            flushed[0] += 1

    for _ in range(steps):
        compute_step(ctx)
        px.write(fd_wal, nbytes)        # the ack: host-side WAL append
        pending += 1
        if pending == flush_every:
            batch = scheduled

            def fire(t: float, _b: int = batch) -> None:
                due.append((_b, t))
                ctx.engine.notify(("wal", ctx.rank))

            ctx.engine.schedule(ctx.clock.true_time + flush_delay, fire)
            scheduled += 1
            pending = 0
        drain()
    # shutdown: wait for outstanding flush timers, then drain them and
    # synchronously flush any partial tail batch
    ctx.engine.wait_until(
        ctx.rank, lambda: flushed[0] + len(due) == scheduled,
        "wal-flush-drain", key=("wal", ctx.rank))
    drain()
    if pending:
        flush_segment(scheduled, pending)
    px.close(fd_wal)
    ctx.comm.barrier()
