"""Replay a captured trace against the PFS simulator.

This is the validation bridge between the paper's *static* conflict
analysis and *dynamic* misbehaviour: the trace's POSIX operations are
re-executed, in timestamp order, against a PFS configured with some
consistency semantics.  Write payloads are synthesized deterministically
per record, so content comparisons (stale reads, settled-file
corruption) are exact and self-contained.

Expected correspondence, pinned by integration tests:

* a run whose detector output is clean under model M replays cleanly
  (no stale reads, no corrupted files) on a PFS offering M;
* FLASH under a session PFS corrupts its checkpoint metadata (the WAW-D
  of Table 4) but replays cleanly under commit semantics;
* RAW-D conflicts appear as stale reads.

A replay can also run under a :class:`~repro.faults.plan.FaultPlan`:
servers crash and recover mid-trace, transient errors force retries, and
ops the client ultimately gives up on are recorded as
:class:`FailedOp` rather than aborting the run (real applications
surface EIO and move on).  Afterwards the crash-consistency checker
audits recovery against the semantics' durability contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.offsets import reconstruct_offsets
from repro.core.semantics import Semantics
from repro.errors import PFSGiveUpError
from repro.faults.checker import CrashConsistencyChecker, Violation
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, InjectedFault
from repro.pfs.client import PFSClient, PFSimulator, PFSStats
from repro.pfs.config import PFSConfig
from repro.tracer.events import CLOSE_OPS, COMMIT_OPS, OPEN_OPS
from repro.tracer.trace import Trace


@dataclass
class StaleReadEvent:
    rank: int
    path: str
    offset: int
    count: int
    stale_bytes: int
    tstart: float


@dataclass
class FailedOp:
    """One operation the client gave up on after exhausting retries."""

    rank: int
    op: str
    path: str
    attempts: int
    tstart: float

    def to_dict(self) -> dict:
        return {"rank": self.rank, "op": self.op, "path": self.path,
                "attempts": self.attempts, "tstart": self.tstart}


@dataclass
class ReplayResult:
    """Outcome of one trace replay under one semantics model."""

    semantics: Semantics
    stats: PFSStats
    stale_reads: list[StaleReadEvent] = field(default_factory=list)
    corrupted_files: list[str] = field(default_factory=list)
    simulator: PFSimulator | None = None
    #: fault-run extras (empty on a fault-free replay)
    failed_ops: list[FailedOp] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    fault_log: list[InjectedFault] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.stale_reads and not self.corrupted_files

    @property
    def contract_ok(self) -> bool:
        """Did crash recovery honour the semantics' durability contract?"""
        return not self.violations

    @property
    def makespan(self) -> float:
        return self.stats.makespan


def replay_trace(trace: Trace, config: PFSConfig,
                 plan: FaultPlan | None = None) -> ReplayResult:
    """Re-execute the trace's POSIX operations on a simulated PFS,
    optionally under a deterministic fault plan."""
    injector = FaultInjector(plan) if plan is not None \
        and not plan.empty else None
    sim = PFSimulator(config, injector=injector)
    clients: dict[int, PFSClient] = {
        r: sim.client(r) for r in range(trace.nranks)}
    stale_reads: list[StaleReadEvent] = []
    failed_ops: list[FailedOp] = []

    # resolved data extents, keyed by record id
    extent_of = {a.rid: a for a in reconstruct_offsets(trace)}

    ct = trace.columnar
    c = ct.columns
    rows = np.flatnonzero(ct.posix_mask() & (c["path_id"] >= 0))
    # POSIX rows with a path, already in global tstart order
    for rid, rank, func_id, path_id, tstart in zip(*(
            c[name][rows].tolist() for name in (
                "rid", "rank", "func_id", "path_id", "tstart"))):
        func, path = ct.funcs[func_id], ct.paths[path_id]
        client = clients[rank]
        client.advance_to(tstart)
        try:
            if func in OPEN_OPS:
                client.open(path)
            elif func in CLOSE_OPS:
                client.close(path)
            elif func in COMMIT_OPS:
                client.commit(path)
            elif rid in extent_of:
                acc = extent_of[rid]
                if acc.is_write:
                    if acc.nbytes <= 0:
                        continue  # zero-length writes are no-ops
                    client.write(acc.path, acc.offset,
                                 _payload(acc.rid, acc.nbytes))
                else:
                    outcome = client.read(acc.path, acc.offset,
                                          acc.nbytes)
                    if outcome.is_stale:
                        stale_reads.append(StaleReadEvent(
                            rank=acc.rank, path=acc.path,
                            offset=acc.offset, count=acc.nbytes,
                            stale_bytes=outcome.stale_bytes,
                            tstart=tstart))
            # metadata ops other than open/close/commit don't touch the
            # data path in this model
        except PFSGiveUpError as exc:
            failed_ops.append(FailedOp(
                rank=rank, op=exc.op, path=path,
                attempts=exc.attempts, tstart=tstart))

    violations: list[Violation] = []
    if injector is not None:
        violations = CrashConsistencyChecker().check(sim)
    return ReplayResult(semantics=config.semantics, stats=sim.stats,
                        stale_reads=stale_reads,
                        corrupted_files=sim.corrupted_files(),
                        simulator=sim,
                        failed_ops=failed_ops,
                        violations=violations,
                        fault_log=list(injector.log)
                        if injector is not None else [])


def synth_payload(rid: int, nbytes: int) -> bytes:
    """The deterministic per-record payload replays write for record
    ``rid`` — public so audits (:mod:`repro.faults.walcheck`) can check
    settled content against what was written."""
    token = rid % 251 + 1
    return bytes([token]) * nbytes


_payload = synth_payload
