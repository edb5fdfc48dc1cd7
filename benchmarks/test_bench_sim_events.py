"""Bench: what one simulated event costs.

Times the per-event path of the simulated stack that every registry run
builds (engine, MPI world, VFS, recorder): a ``compute_step`` (an
``advance`` plus a world ``allreduce``), a 4 KiB POSIX ``write`` and an
``open`` + ``close`` pair.  Each runs at 1 rank, where no event switches
threads and the figure is bookkeeping alone, and at 16 ranks, where
about one OS context switch per event is the floor with one thread per
rank.  A figure is the process's CPU seconds per event per rank (the
kernel's share of each switch included, other processes' load not),
net of an empty run with the same rank count, and the median of
``ROUNDS`` runs.  The rank threads share one CPU, as
``perfbench/run.py --placement one-cpu`` pins them, so a handoff never
crosses CPUs.

``tools/bench_gate.py`` holds every ``*_s`` figure to the committed
``benchmarks/output/BENCH_sim_events.json`` between hosts with the same
CPU count.  The ``.txt`` lists the figures the recording host measured
before the per-event path was shortened beside the fresh ones.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from contextlib import contextmanager

from benchmarks.conftest import save_artifact
from repro.apps.base import compute_step
from repro.mpi.comm import Communicator, MPIWorld
from repro.posix import flags as F
from repro.posix.api import PosixAPI
from repro.posix.vfs import VirtualFileSystem
from repro.sim.engine import SimConfig, SimEngine
from repro.tracer.recorder import Recorder

SEED = 7
ROUNDS = 11
RANKS = (1, 16)
#: events per rank in one timed run, by rank count
EVENTS = {1: 4000, 16: 400}
#: µs per event on the recording host (2 vCPUs, Python 3.11.7, one CPU
#: pinned) before the per-event path was shortened, when a collective
#: arrival, a checkpoint and a traced call each ran 30-40 Python calls
#: of bookkeeping: the median of 7 runs of :func:`measure`, alternated
#: with runs of the shortened path
BEFORE_US = {
    "compute_step_1rank_s": 4.14, "compute_step_16rank_s": 6.90,
    "write_4k_1rank_s": 6.24, "write_4k_16rank_s": 9.16,
    "open_close_1rank_s": 7.91, "open_close_16rank_s": 15.43,
}


def _steps(ctx, n: int) -> None:
    for _ in range(n):
        compute_step(ctx)


def _writes(ctx, n: int) -> None:
    px = ctx.posix
    fd = px.open(f"/bench/rank{ctx.rank}", F.O_WRONLY | F.O_CREAT)
    for _ in range(n):
        px.write(fd, 4096)
    px.close(fd)


def _opens(ctx, n: int) -> None:
    px = ctx.posix
    path = f"/bench/rank{ctx.rank}"
    for _ in range(n):
        px.close(px.open(path, F.O_WRONLY | F.O_CREAT))


def _empty(ctx, n: int) -> None:
    pass


#: figure name prefix -> the rank program that issues its events
PROGRAMS = {"compute_step": _steps, "write_4k": _writes,
            "open_close": _opens}


def _run(nranks: int, program, n: int) -> float:
    """CPU seconds of one traced run of ``program(ctx, n)`` on every
    rank (all threads of the process, the kernel's share of each switch
    included), the cyclic collector off."""
    engine = SimEngine(SimConfig(nranks=nranks, seed=SEED))
    vfs = VirtualFileSystem()
    vfs.makedirs("/bench")
    recorder = Recorder(nranks)
    world = MPIWorld(engine, recorder)

    def services(ctx):
        return {"comm": Communicator(world, ctx),
                "posix": PosixAPI(vfs, ctx, recorder)}

    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        engine.run(lambda ctx: program(ctx, n), services)
        return time.process_time() - t0
    finally:
        gc.enable()


def per_event_s(program, nranks: int) -> float:
    """CPU seconds per event per rank of one run, net of an empty run."""
    n = EVENTS[nranks]
    return ((_run(nranks, program, n) - _run(nranks, _empty, 0))
            / (n * nranks))


@contextmanager
def _one_cpu():
    """Pin this thread, and the rank threads it starts, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def measure(rounds: int = ROUNDS) -> dict[str, float]:
    """Every figure, ``{"<event>_<p>rank_s": seconds per event}``.

    Each round takes one sample of every figure, so the host's speed,
    which drifts from minute to minute, moves all figures alike.
    """
    samples: dict[str, list[float]] = {}
    with _one_cpu():
        for _ in range(rounds):
            for name, program in PROGRAMS.items():
                for nranks in RANKS:
                    samples.setdefault(f"{name}_{nranks}rank_s", []).append(
                        per_event_s(program, nranks))
    return {key: statistics.median(values) for key, values in samples.items()}


def test_bench_compute_step_16_ranks(benchmark):
    seconds = benchmark.pedantic(
        lambda: _run(16, _steps, EVENTS[16]), rounds=3, iterations=1)
    assert seconds > 0


def test_sim_events_baseline(artifacts):
    """Measure every figure and emit the baseline."""
    figures = measure()
    assert all(seconds > 0 for seconds in figures.values()), figures
    doc = {
        "bench": "sim_events",
        "seed": SEED,
        "rounds": ROUNDS,
        "events_per_rank": {str(p): n for p, n in EVENTS.items()},
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.machine(),
        "python": platform.python_version(),
        **{name: round(seconds, 9) for name, seconds in figures.items()},
    }
    save_artifact(artifacts, "BENCH_sim_events.json",
                  json.dumps(doc, indent=2, sort_keys=True))
    lines = [f"simulated events: CPU time per event per rank, net of an "
             f"empty run, median of {ROUNDS} runs, rank threads on one CPU",
             f"{'event':<16}{'ranks':>6}{'before':>11}{'now':>11}"]
    for name in PROGRAMS:
        for nranks in RANKS:
            key = f"{name}_{nranks}rank_s"
            lines.append(f"{name:<16}{nranks:>6}"
                         f"{BEFORE_US[key]:>9.2f}us"
                         f"{figures[key] * 1e6:>9.2f}us")
    save_artifact(artifacts, "BENCH_sim_events.txt", "\n".join(lines))
