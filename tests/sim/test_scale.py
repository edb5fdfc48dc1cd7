"""Scale: 1024 ranks in one process, a constant number of checks per block.

A seeded checkpoint-style program — every rank creates its own file
under a shared directory and issues two 512-byte writes separated by
barriers — runs single-process at 1024 ranks.  Keyed wakeups re-check a
blocked rank's predicate only after the state it waits on changes, so
a block costs about two checks (the failed check and the passing
re-check after the notify, on which the rank resumes) at any rank
count.  A polling dispatcher re-checks every blocked rank at every
switch instead, which is already 131 checks per block at 256 ranks.

The Ckpt-IO WAL proxy at 256 ranks is the second input: its shutdown
drain waits on flush timers fired by ``schedule()`` callbacks, which
notify the drain's key like any other writer.

The §5.2 validation keeps up at the same scale: the scale program plus a
neighbor send/recv, a reduce and a bcast, and overlapping writes to one
shared file around a barrier, validated in one process with the
happens-before index's memory bounded.
"""

import tracemalloc
from collections import Counter

import pytest

from repro.apps.base import AppConfig, run_application
from repro.apps.registry import find_variant
from repro.core.happens_before import HappensBefore, validate_race_freedom
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.obs import registry as obs
from repro.sim.engine import SimEngine

NRANKS = 1024
WAL_NRANKS = 256
SEED = 11
MAX_CHECKS_PER_BLOCK = 4
#: tracemalloc peak of the happens-before build plus its queries
MAX_HB_PEAK_BYTES = 16 * 2 ** 20

O_CREAT_RDWR = 64 | 2


def _program(ctx, cfg):
    px, rank = ctx.posix, ctx.rank
    fd = px.open(f"/bench/out/rank{rank:05d}.dat", O_CREAT_RDWR)
    px.pwrite(fd, b"x" * 512, 0)
    ctx.comm.barrier()
    px.pwrite(fd, b"y" * 512, 512)
    px.close(fd)
    ctx.comm.barrier()


def _setup(fs, cfg):
    fs.makedirs("/bench/out")


def _validated_program(ctx, cfg):
    """The scale program, then a neighbor send/recv, a reduce and a
    bcast rooted at 0, and one shared file that ranks 0-1 write before a
    barrier and ranks 2-3 write after it, all at the same bytes."""
    _program(ctx, cfg)
    px, comm, rank = ctx.posix, ctx.comm, ctx.rank
    if rank % 2 == 0:
        comm.send(rank + 1, rank)
    else:
        comm.recv(rank - 1)
    comm.bcast(comm.reduce(rank, root=0), root=0)
    if rank < 4:
        fd = px.open("/bench/shared.dat", O_CREAT_RDWR)
    if rank < 2:
        px.pwrite(fd, b"s" * 512, 0)
    comm.barrier()
    if rank < 4:
        if rank >= 2:
            px.pwrite(fd, b"s" * 512, 0)
        px.close(fd)


@pytest.fixture
def counted_run(monkeypatch):
    """Run a thunk with every wait predicate counted.

    Returns the thunk's result, the predicate checks per wait reason, and
    the number of blocks.
    """
    checks: Counter = Counter()
    real_wait_until = SimEngine.wait_until

    def counting_wait_until(self, rank, predicate, reason, *args, **kwargs):
        def counted():
            checks[reason] += 1
            return predicate()

        return real_wait_until(self, rank, counted, reason, *args, **kwargs)

    monkeypatch.setattr(SimEngine, "wait_until", counting_wait_until)

    def run(execute):
        with obs.collecting() as reg:
            result = execute()
            blocks = reg.snapshot()["sim.blocks"]["value"]
        return result, checks, blocks

    return run


def test_1024_ranks_in_one_process(counted_run):
    cfg = AppConfig(application="scale", nranks=NRANKS, seed=SEED,
                    clock_skew_us=10.0)
    trace, checks, blocks = counted_run(
        lambda: run_application(cfg, _program, setup=_setup))

    per_rank = Counter(r.rank for r in trace.records)
    assert sorted(per_rank) == list(range(NRANKS))
    assert set(per_rank.values()) == {4}
    assert blocks >= NRANKS
    total = sum(checks.values())
    assert total / blocks <= MAX_CHECKS_PER_BLOCK, (
        f"{total} predicate checks for {blocks} blocks")


def test_wal_drain_is_keyed_at_256_ranks(counted_run):
    variant = find_variant("Ckpt-IO", "POSIX", "wal")
    _, checks, blocks = counted_run(
        lambda: variant.run(nranks=WAL_NRANKS, seed=SEED))

    # some drains really blocked: an unblocked drain is checked once
    assert checks["wal-flush-drain"] > WAL_NRANKS
    total = sum(checks.values())
    assert total / blocks <= MAX_CHECKS_PER_BLOCK, (
        f"{total} predicate checks for {blocks} blocks")


def test_race_validation_at_1024_ranks_in_one_process():
    cfg = AppConfig(application="scale", nranks=NRANKS, seed=SEED,
                    clock_skew_us=10.0)
    trace = run_application(cfg, _validated_program, setup=_setup)
    assert trace.columnar.nevents == 8 * NRANKS
    pairs = [(c.first, c.second)
             for c in analyze(trace).conflicts(Semantics.SESSION)]

    tracemalloc.start()
    try:
        race = validate_race_freedom(HappensBefore(trace), pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak <= MAX_HB_PEAK_BYTES, f"{peak / 2 ** 20:.1f} MB"
    # the barrier orders each early writer before each late one; the
    # writers on one side of it share no synchronization
    assert race.checked_pairs == 6
    assert sorted((a.rank, b.rank) for a, b in race.unsynchronized) == \
        [(0, 1), (2, 3)]
    assert race.timestamp_disagreements == []
