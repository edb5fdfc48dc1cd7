"""Acked-but-unflushed WAL loss accounting (the iFast risk audit).

The ``wal`` checkpoint proxy (:func:`repro.apps.checkpoint.main_wal`)
acknowledges a checkpoint record as soon as the append to the
rank-local write-ahead log returns, and flushes the log to immutable
segment objects asynchronously.  The crash checker
(:mod:`repro.faults.checker`) judges each *store* against its
semantics contract — but the WAL protocol's promise is cross-file:
**every acked record survives somewhere**, either in the WAL file
itself or in a durably flushed segment.  This module audits that
promise after a chaos replay.

An acked record counts as *lost* when its bytes in the settled WAL no
longer match what was written **and** no durable segment covers its
log range.  On a healthy deployment the WAL lives on host-local
storage — modelled by mapping the WAL directory to strong semantics
via ``PFSConfig.semantics_overrides`` — and the audit must count zero
losses under every fault plan (losing strong-acked data is already a
checker violation).  Re-run with the WAL on the shared store's own
model and the audit quantifies exactly the acked-but-unflushed window
the paper warns about: data the semantics contract *legally* discards
even though the application saw an ack, which is why the checker stays
silent while the audit does not.

Segment coverage needs no knowledge of the proxy's batching: each
rank's segments absorb its log front-to-back, so the running sum of a
rank's segment sizes, in time order, maps segment bytes to WAL
offsets.  A segment is durable when its settled content matches every
payload written to it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.offsets import reconstruct_offsets

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pfs.replay import ReplayResult
    from repro.tracer.trace import Trace


@dataclass(frozen=True)
class LostAckedRecord:
    """One acknowledged WAL record that survives nowhere."""

    rank: int
    path: str
    offset: int
    nbytes: int
    t_acked: float

    def to_dict(self) -> dict:
        return {"rank": self.rank, "path": self.path,
                "offset": self.offset, "nbytes": self.nbytes,
                "t_acked": self.t_acked}


@dataclass
class WalAudit:
    """The acked-durable ledger of one replayed WAL run."""

    wal_dir: str
    seg_dir: str
    acked_records: int = 0
    acked_bytes: int = 0
    flushed_segments: int = 0
    flushed_bytes: int = 0
    survived_in_wal: int = 0
    covered_by_segment: int = 0
    #: WAL appends that failed in the replay — the application never
    #: saw an ack, so they owe nothing
    unacked_failures: int = 0
    lost: list[LostAckedRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every acknowledged record survives in the WAL or a segment."""
        return not self.lost

    @property
    def lost_bytes(self) -> int:
        return sum(r.nbytes for r in self.lost)

    def to_dict(self) -> dict:
        return {
            "wal_dir": self.wal_dir, "seg_dir": self.seg_dir,
            "acked_records": self.acked_records,
            "acked_bytes": self.acked_bytes,
            "flushed_segments": self.flushed_segments,
            "flushed_bytes": self.flushed_bytes,
            "survived_in_wal": self.survived_in_wal,
            "covered_by_segment": self.covered_by_segment,
            "unacked_failures": self.unacked_failures,
            "lost": [r.to_dict() for r in self.lost],
            "lost_bytes": self.lost_bytes,
            "ok": self.ok,
        }


def audit_wal(trace: "Trace", result: "ReplayResult",
              settle_order: str = "close") -> WalAudit | None:
    """Audit acked-but-unflushed loss after a (possibly faulty) replay.

    Returns ``None`` when the trace does not describe a WAL run (its
    ``meta["options"]`` lacks ``wal_dir``/``seg_dir``).
    """
    # runtime import: replay imports the checker from this package, so
    # a module-level import here would close the cycle
    from repro.pfs.replay import synth_payload

    opts = trace.meta.get("options") or {}
    wal_dir, seg_dir = opts.get("wal_dir"), opts.get("seg_dir")
    if not wal_dir or not seg_dir:
        return None
    audit = WalAudit(wal_dir=str(wal_dir), seg_dir=str(seg_dir))
    wal_prefix = str(wal_dir).rstrip("/") + "/"
    seg_prefix = str(seg_dir).rstrip("/") + "/"
    sim = result.simulator
    assert sim is not None

    failed = {(f.rank, f.path, f.tstart) for f in result.failed_ops}
    settled: dict[str, bytes] = {}

    def content(path: str) -> bytes:
        if path not in settled:
            store = sim.files.get(path)
            settled[path] = store.settle(settle_order) if store else b""
        return settled[path]

    def matches(acc) -> bool:
        data = content(acc.path)[acc.offset:acc.offset + acc.nbytes]
        return data == synth_payload(acc.rid, acc.nbytes)

    # segment coverage: per rank, the running sum of segment sizes maps
    # segment bytes onto WAL offsets; only durable segments cover.  The
    # solve returns accesses file by file, so walk them in time order.
    cursor: dict[int, int] = {}
    covered: dict[int, list[tuple[int, int]]] = {}
    wal_writes = []
    accesses = reconstruct_offsets(trace)
    for acc in accesses.records_at(np.lexsort((accesses.rid,
                                               accesses.tstart))):
        if not acc.is_write or acc.nbytes <= 0:
            continue
        if acc.path.startswith(wal_prefix):
            wal_writes.append(acc)
        elif acc.path.startswith(seg_prefix):
            lo = cursor.get(acc.rank, 0)
            cursor[acc.rank] = lo + acc.nbytes
            audit.flushed_segments += 1
            if (acc.rank, acc.path, acc.tstart) not in failed \
                    and matches(acc):
                audit.flushed_bytes += acc.nbytes
                insort(covered.setdefault(acc.rank, []),
                       (lo, lo + acc.nbytes))

    def is_covered(rank: int, lo: int, hi: int) -> bool:
        pos = lo
        for a, b in covered.get(rank, ()):  # sorted, disjoint
            if a <= pos < b:
                pos = b
                if pos >= hi:
                    return True
        return pos >= hi

    for acc in wal_writes:
        if (acc.rank, acc.path, acc.tstart) in failed:
            audit.unacked_failures += 1
            continue
        audit.acked_records += 1
        audit.acked_bytes += acc.nbytes
        if matches(acc):
            audit.survived_in_wal += 1
        elif is_covered(acc.rank, acc.offset, acc.offset + acc.nbytes):
            audit.covered_by_segment += 1
        else:
            audit.lost.append(LostAckedRecord(
                rank=acc.rank, path=acc.path, offset=acc.offset,
                nbytes=acc.nbytes, t_acked=acc.tend))
    audit.lost.sort(key=lambda r: (r.rank, r.path, r.offset))
    return audit


__all__ = ["LostAckedRecord", "WalAudit", "audit_wal"]
