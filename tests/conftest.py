"""Shared fixtures: quick simulation harnesses and a cached study run."""

from __future__ import annotations

from typing import Any, Callable

import pytest

from repro.apps.registry import all_variants
from repro.core.report import analyze
from repro.mpi.comm import Communicator, MPIWorld
from repro.posix.api import PosixAPI
from repro.posix.vfs import VirtualFileSystem
from repro.sim.engine import RankContext, SimConfig, SimEngine
from repro.study.runner import StudyResults, run_study
from repro.tracer.recorder import Recorder
from repro.tracer.trace import Trace


class SimHarness:
    """One-call engine + VFS + tracer + MPI world for unit tests."""

    def __init__(self, nranks: int = 4, seed: int = 3,
                 clock_skew_us: float = 0.0):
        self.config = SimConfig(nranks=nranks, seed=seed,
                                clock_skew_us=clock_skew_us)
        self.engine = SimEngine(self.config)
        self.vfs = VirtualFileSystem()
        self.recorder = Recorder(nranks)
        self.world = MPIWorld(self.engine, self.recorder)

    def services(self, ctx: RankContext) -> dict[str, Any]:
        return {
            "comm": Communicator(self.world, ctx),
            "posix": PosixAPI(self.vfs, ctx, self.recorder),
            "recorder": self.recorder,
        }

    def run(self, program: Callable[[RankContext], Any],
            align: bool = True) -> list[Any]:
        def wrapper(ctx: RankContext):
            if align:
                ctx.comm.barrier()
                self.recorder.set_time_origin(ctx.rank,
                                              ctx.clock.local_time)
            return program(ctx)
        return self.engine.run(wrapper, self.services)

    def trace(self, **meta: Any) -> Trace:
        return self.recorder.build_trace(meta=meta)


@pytest.fixture
def harness() -> Callable[..., SimHarness]:
    return SimHarness


@pytest.fixture
def run_traced(harness):
    """Run a program on a fresh harness; returns (trace, vfs)."""

    def _run(program, nranks: int = 4, seed: int = 3,
             clock_skew_us: float = 0.0):
        h = harness(nranks=nranks, seed=seed, clock_skew_us=clock_skew_us)
        h.run(program)
        return h.trace(app="test"), h.vfs

    return _run


@pytest.fixture(scope="session")
def study8() -> StudyResults:
    """The full 28-configuration study at 8 ranks (run once per session)."""
    return run_study(nranks=8, seed=7)


@pytest.fixture(scope="session")
def study64() -> StudyResults:
    """The study at 64 ranks, the smallest scale the paper traced."""
    return run_study(nranks=64, seed=7)


@pytest.fixture(scope="session")
def variant_by_label():
    return {v.label: v for v in all_variants()}


@pytest.fixture(scope="session")
def flash_reports():
    """FLASH fbs/nofbs traces + reports at 8 ranks, shared by tests."""
    out = {}
    for label in ("FLASH-HDF5 fbs", "FLASH-HDF5 nofbs"):
        variant = {v.label: v for v in all_variants()}[label]
        trace = variant.run(nranks=8)
        out[label] = (variant, trace, analyze(trace))
    return out
