"""Scale: 1024 ranks in one process, a constant number of checks per block.

A seeded checkpoint-style program — every rank creates its own file
under a shared directory and issues two 512-byte writes separated by
barriers — runs single-process at 1024 ranks.  Keyed wakeups re-check a
blocked rank's predicate only after the state it waits on changes, so
a block costs about three checks (the failed check, the re-check after
the notify, the passing check on resume) at any rank count.  A polling
dispatcher re-checks every blocked rank at every switch instead, which
is already 131 checks per block at 256 ranks.
"""

from collections import Counter

from repro.apps.base import AppConfig, run_application
from repro.obs import registry as obs
from repro.sim.engine import SimEngine

NRANKS = 1024
SEED = 11
MAX_CHECKS_PER_BLOCK = 4

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


def test_1024_ranks_in_one_process(monkeypatch):
    checks = [0]
    real_wait_until = SimEngine.wait_until

    def counting_wait_until(self, rank, predicate, *args, **kwargs):
        def counted():
            checks[0] += 1
            return predicate()

        return real_wait_until(self, rank, counted, *args, **kwargs)

    monkeypatch.setattr(SimEngine, "wait_until", counting_wait_until)
    cfg = AppConfig(application="scale", nranks=NRANKS, seed=SEED,
                    clock_skew_us=10.0)
    with obs.collecting() as reg:
        trace = run_application(cfg, _program, setup=_setup)
        blocks = reg.snapshot()["sim.blocks"]["value"]

    per_rank = Counter(r.rank for r in trace.records)
    assert sorted(per_rank) == list(range(NRANKS))
    assert set(per_rank.values()) == {4}
    assert blocks >= NRANKS
    assert checks[0] / blocks <= MAX_CHECKS_PER_BLOCK, (
        f"{checks[0]} predicate checks for {blocks} blocks")
