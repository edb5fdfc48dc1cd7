"""WAL acked-durable audit: the promise the per-store checker can't see.

The checker judges each store against its semantics contract; the WAL
protocol's promise is cross-file — every acked record survives in the
WAL or a flushed segment.  These tests pin the three regimes:

* healthy (host-local WAL, flushes running): zero loss under faults;
* WAL on the shared store's weak model, flushes missing: the store
  *legally* discards acked records, so the checker stays silent while
  the audit counts every loss;
* same trace with the WAL mapped to strong semantics: the identical
  losses now violate the durability contract, so audit and checker
  blame the same bytes.
"""

import pytest

from repro.apps.base import AppConfig, compute_step, run_application
from repro.apps.checkpoint import WAL_DIR, wal_path
from repro.apps.registry import find_variant
from repro.core.semantics import Semantics
from repro.faults import LOST_ACKED, CrashEvent, FaultPlan, audit_wal
from repro.faults.walcheck import LostAckedRecord, WalAudit
from repro.pfs.config import PFSConfig
from repro.pfs.replay import replay_trace
from repro.posix import flags as F

SEG_DIR = "/ckpt/segments"
STRIPE = 1 << 16


def wal_no_flush(ctx, cfg):
    """A broken WAL deployment: acks appends, never flushes segments."""
    px = ctx.posix
    if ctx.rank == 0:
        px.mkdir("/ckpt")
        px.mkdir(WAL_DIR)
        px.mkdir(SEG_DIR)
    ctx.comm.barrier()
    fd = px.open(wal_path(WAL_DIR, ctx.rank),
                 F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
    for _ in range(int(cfg.opt("steps", 4))):
        compute_step(ctx)
        px.write(fd, 1024)
    px.close(fd)
    ctx.comm.barrier()


def wal_interleaved(ctx, cfg):
    """One rank absorbs its log into two open segments in turn: file
    ``b`` takes the first record, then ``a`` the second, and a rewrite
    of ``a``'s head leaves that first ``a`` write not durable.  The
    WAL's head is then overwritten, so the first two records survive
    only in segments.  Path order (``a`` before ``b``) is not the order
    the segments absorbed the log in."""
    px = ctx.posix
    px.mkdir("/ckpt")
    px.mkdir(WAL_DIR)
    px.mkdir(SEG_DIR)
    fd_wal = px.open(wal_path(WAL_DIR, 0),
                     F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
    fd_a, fd_b = (px.open(f"{SEG_DIR}/{name}.seg",
                          F.O_WRONLY | F.O_CREAT | F.O_TRUNC)
                  for name in "ab")
    px.write(fd_wal, 1024)      # WAL [0, 1024)
    px.write(fd_wal, 1024)      # WAL [1024, 2048)
    px.write(fd_b, 1024)        # log [0, 1024), durable
    px.write(fd_a, 1024)        # log [1024, 2048), overwritten below
    px.lseek(fd_a, 0, F.SEEK_SET)
    px.write(fd_a, 512)         # log [2048, 2560), durable
    px.lseek(fd_wal, 0, F.SEEK_SET)
    px.write(fd_wal, 2048)      # the WAL's head, rewritten
    for fd in (fd_wal, fd_a, fd_b):
        px.close(fd)


@pytest.fixture(scope="module")
def noflush_trace():
    cfg = AppConfig(application="WalNoFlush", io_library="POSIX",
                    nranks=2, seed=7,
                    options={"wal_dir": WAL_DIR, "seg_dir": SEG_DIR})
    return run_application(cfg, wal_no_flush)


@pytest.fixture(scope="module")
def wal_trace():
    return find_variant("Ckpt-IO", "POSIX", "wal").run(nranks=2, seed=7)


def ost_crash(at_op):
    return FaultPlan(name="ost-crash", seed=7,
                     crashes=(CrashEvent(target="ost:0", at_op=at_op),))


class TestHealthyDeployment:
    def test_fault_free_everything_survives_in_wal(self, wal_trace):
        config = PFSConfig(semantics=Semantics.SESSION,
                           stripe_size=STRIPE)
        result = replay_trace(wal_trace, config,
                              plan=FaultPlan(name="fault-free"))
        audit = audit_wal(wal_trace, result)
        assert audit is not None and audit.ok
        assert audit.acked_records == 2 * 6      # nranks x steps
        assert audit.survived_in_wal == audit.acked_records
        assert audit.covered_by_segment == 0
        assert audit.flushed_segments == 2 * 3   # nranks x batches
        assert audit.flushed_bytes == audit.acked_bytes
        assert audit.lost == [] and audit.lost_bytes == 0

    def test_crash_losses_covered_by_segments(self, wal_trace):
        """A crash may roll back WAL bytes, but with the flush path
        healthy every acked record is re-derivable from a segment."""
        config = PFSConfig(
            semantics=Semantics.SESSION, stripe_size=STRIPE,
            semantics_overrides={WAL_DIR + "/": Semantics.STRONG})
        result = replay_trace(wal_trace, config, plan=ost_crash(8))
        audit = audit_wal(wal_trace, result,
                          settle_order=config.settle_order)
        assert audit is not None and audit.ok
        assert audit.covered_by_segment > 0       # the audit earned it
        assert audit.survived_in_wal \
            + audit.covered_by_segment == audit.acked_records


class TestAckedButUnflushed:
    """The iFast window: acks outrun durability and a crash lands."""

    def test_checker_silent_audit_counts_loss(self, noflush_trace):
        config = PFSConfig(semantics=Semantics.SESSION,
                           stripe_size=STRIPE)
        result = replay_trace(noflush_trace, config, plan=ost_crash(6))
        audit = audit_wal(noflush_trace, result)
        # the store legally discarded uncommitted extents ...
        assert result.violations == [] and result.failed_ops == []
        # ... but the application had already seen the acks
        assert not audit.ok
        assert audit.acked_records == 8
        assert audit.survived_in_wal + len(audit.lost) == 8
        assert audit.lost_bytes == 1024 * len(audit.lost)
        for rec in audit.lost:
            assert isinstance(rec, LostAckedRecord)
            assert rec.path.startswith(WAL_DIR)
            assert rec.nbytes == 1024 and rec.t_acked > 0

    def test_strong_wal_prevents_the_loss(self, noflush_trace):
        """Host-local durability (the strong override the chaos harness
        applies) is exactly what closes the window: acked extents are
        durable at ack, so recovery keeps them.  The only record strong
        semantics cannot save is one whose ack raced the crash itself —
        in flight at the crash instant, legally discardable under every
        contract (LOST_ACKED never fires for it)."""
        weak = PFSConfig(semantics=Semantics.SESSION,
                         stripe_size=STRIPE)
        strong = PFSConfig(
            semantics=Semantics.SESSION, stripe_size=STRIPE,
            semantics_overrides={WAL_DIR + "/": Semantics.STRONG})
        lost_weak = audit_wal(
            noflush_trace,
            replay_trace(noflush_trace, weak, plan=ost_crash(6))).lost
        result = replay_trace(noflush_trace, strong, plan=ost_crash(6))
        audit = audit_wal(noflush_trace, result,
                          settle_order=strong.settle_order)
        assert len(audit.lost) < len(lost_weak)
        assert not any(v.kind == LOST_ACKED for v in result.violations)
        crash_t = min(f.t for f in result.fault_log)
        for rec in audit.lost:          # only the ack-crash race remains
            assert rec.t_acked > crash_t

    def test_later_crash_loses_more(self, noflush_trace):
        config = PFSConfig(semantics=Semantics.SESSION,
                           stripe_size=STRIPE)
        losses = []
        for at_op in (6, 8, 10):
            result = replay_trace(noflush_trace, config,
                                  plan=ost_crash(at_op))
            losses.append(len(audit_wal(noflush_trace, result).lost))
        assert losses == sorted(losses) and losses[0] < losses[-1]

    def test_deterministic(self, noflush_trace):
        config = PFSConfig(semantics=Semantics.SESSION,
                           stripe_size=STRIPE)
        docs = []
        for _ in range(2):
            result = replay_trace(noflush_trace, config,
                                  plan=ost_crash(6))
            docs.append(audit_wal(noflush_trace, result).to_dict())
        assert docs[0] == docs[1]


class TestAuditShape:
    def test_non_wal_trace_returns_none(self):
        trace = find_variant("Ckpt-IO", "POSIX", "shared").run(nranks=2)
        config = PFSConfig(semantics=Semantics.SESSION,
                           stripe_size=STRIPE)
        result = replay_trace(trace, config,
                              plan=FaultPlan(name="fault-free"))
        assert audit_wal(trace, result) is None

    def test_to_dict_round_trips_the_ledger(self, wal_trace):
        config = PFSConfig(semantics=Semantics.COMMIT,
                           stripe_size=STRIPE)
        result = replay_trace(wal_trace, config,
                              plan=FaultPlan(name="fault-free"))
        doc = audit_wal(wal_trace, result).to_dict()
        assert doc["ok"] is True and doc["lost"] == []
        assert doc["wal_dir"] == WAL_DIR
        assert doc["acked_bytes"] == doc["acked_records"] * 2048
        assert isinstance(WalAudit(wal_dir="w", seg_dir="s").ok, bool)


class TestSegmentOrder:
    def test_segments_absorb_the_log_in_time_order(self):
        """The coverage cursor follows each rank's segment writes in
        time order, not file by file: segment ``b`` holds the first
        record, and the second is lost with ``a``'s rewritten head."""
        cfg = AppConfig(application="WalInterleaved", io_library="POSIX",
                        nranks=1, seed=7,
                        options={"wal_dir": WAL_DIR, "seg_dir": SEG_DIR})
        trace = run_application(cfg, wal_interleaved)
        result = replay_trace(trace, PFSConfig(
            semantics=Semantics.SESSION, stripe_size=STRIPE),
            plan=FaultPlan(name="fault-free"))
        audit = audit_wal(trace, result)
        assert audit.to_dict() == {
            "wal_dir": WAL_DIR, "seg_dir": SEG_DIR,
            "acked_records": 3, "acked_bytes": 4096,
            "flushed_segments": 3, "flushed_bytes": 1536,
            "survived_in_wal": 1, "covered_by_segment": 1,
            "unacked_failures": 0,
            "lost": [{"rank": 0, "path": wal_path(WAL_DIR, 0),
                      "offset": 1024, "nbytes": 1024,
                      "t_acked": audit.lost[0].t_acked}],
            "lost_bytes": 1024, "ok": False}
