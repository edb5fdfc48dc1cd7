"""Harness that runs one application proxy end-to-end and returns a trace.

The harness mirrors the paper's methodology: a barrier is executed at
startup and each rank's barrier-exit local time becomes ``t = 0`` for its
trace records (the clock-skew alignment of §5.2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.mpi.comm import Communicator, MPIWorld
from repro.posix.api import PosixAPI
from repro.posix.vfs import VirtualFileSystem
from repro.sim.engine import RankContext, SimConfig, SimEngine
from repro.tracer.recorder import Recorder
from repro.tracer.trace import Trace


@dataclass
class AppConfig:
    """One run configuration of one application proxy."""

    application: str
    io_library: str = "POSIX"
    nranks: int = 8
    seed: int = 7
    clock_skew_us: float = 10.0
    options: dict[str, Any] = field(default_factory=dict)

    def opt(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)

    @property
    def label(self) -> str:
        return f"{self.application}-{self.io_library}"


class AppProgram(Protocol):
    """An application proxy: SPMD body run on every rank."""

    def __call__(self, ctx: RankContext, cfg: AppConfig) -> None: ...


def run_application(cfg: AppConfig, program: AppProgram, *,
                    setup: Callable[[VirtualFileSystem, AppConfig], None]
                    | None = None,
                    vfs: VirtualFileSystem | None = None) -> Trace:
    """Execute ``program`` under tracing and return the aligned trace.

    ``setup`` pre-populates the file system *before* tracing starts
    (input datasets, restart files) — the equivalent of files that exist
    on the PFS before the traced job runs.  Pass ``vfs`` to inspect file
    contents afterwards (e.g. in tests or PFS replay).
    """
    sim_cfg = SimConfig(nranks=cfg.nranks, seed=cfg.seed,
                        clock_skew_us=cfg.clock_skew_us)
    engine = SimEngine(sim_cfg)
    fs = vfs if vfs is not None else VirtualFileSystem()
    if setup is not None:
        setup(fs, cfg)
    recorder = Recorder(cfg.nranks)
    world = MPIWorld(engine, recorder)

    def services(ctx: RankContext) -> dict[str, Any]:
        return {
            "comm": Communicator(world, ctx),
            "posix": PosixAPI(fs, ctx, recorder),
            "recorder": recorder,
        }

    def wrapper(ctx: RankContext) -> None:
        # startup barrier: the paper's clock alignment point
        ctx.comm.barrier()
        recorder.set_time_origin(ctx.rank, ctx.clock.local_time)
        program(ctx, cfg)
        ctx.comm.barrier()

    engine.run(wrapper, services)
    return recorder.build_trace(meta={
        "application": cfg.application,
        "io_library": cfg.io_library,
        "nranks": cfg.nranks,
        "seed": cfg.seed,
        "options": dict(cfg.options),
    })


@dataclass(frozen=True)
class DeckSetup:
    """Setup hook that pre-creates an input deck at ``path``.

    A callable *instance* rather than a closure so that
    :class:`~repro.apps.registry.RunVariant` objects carrying it stay
    picklable — the study's process-pool runner ships variants to
    worker processes wholesale.
    """

    path: str
    nbytes: int = 2048

    def __call__(self, vfs: VirtualFileSystem, cfg: AppConfig) -> None:
        import posixpath

        from repro.posix import flags as F
        vfs.makedirs(posixpath.dirname(self.path))
        inode = vfs.open_inode(self.path, F.O_WRONLY | F.O_CREAT, 0.0)
        vfs.write_at(inode, 0, b"%" * self.nbytes, 0.0)
        vfs.release_inode(inode)


def make_deck_setup(path: str, nbytes: int = 2048
                    ) -> Callable[[VirtualFileSystem, AppConfig], None]:
    """Setup hook that pre-creates an input deck at ``path``."""
    return DeckSetup(path, nbytes)


def read_input_deck(ctx: RankContext, path: str,
                    chunk: int = 1024) -> None:
    """Rank 0 reads the input deck front to back, then broadcasts it.

    The 1-1 input-read pattern the paper observes for most applications
    (and excludes from Table 3 for space).
    """
    size = 0
    if ctx.rank == 0:
        px = ctx.posix
        px.access(path)
        fd = px.fopen(path, "r")
        while True:
            data = px.fread(fd, chunk)
            size += len(data)
            if len(data) < chunk:
                break
        px.fclose(fd)
    ctx.comm.bcast(size, root=0)


def compute_step(ctx: RankContext, seconds: float = 200e-6) -> None:
    """Model one time-step's computation plus the step-end reduction.

    The allreduce is the synchronization that makes I/O phases race-free,
    exactly the role MPI communication plays in the real applications.
    """
    ctx.clock.advance(seconds)
    ctx.comm.allreduce(1.0)
