"""PFS client handles and the simulator facade.

:class:`PFSimulator` owns the shared state (file stores, servers);
:class:`PFSClient` is one process's handle with its own virtual clock.
The data path charges client overhead, a network round trip, striped OST
service, and — under strong semantics — one lock round trip through the
metadata server per data operation.

Faults are threaded through both halves.  The simulator may carry a
:class:`~repro.faults.injector.FaultInjector`; every client operation
polls it (firing due crashes and cache drops), and every server-side
attempt may fail transiently — either by an injected error draw or
because the target server is inside its crash-downtime window.  Clients
ride failures out with the configured
:class:`~repro.pfs.config.RetryPolicy` (exponential backoff with seeded
jitter) and give up with :class:`~repro.errors.PFSGiveUpError` once the
budget is exhausted; retry/giveup counts land in :class:`PFSStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.semantics import Semantics
from repro.errors import PFSError, PFSFaultError, PFSGiveUpError
from repro.obs import registry as obsreg
from repro.pfs.cache import ClientCache
from repro.pfs.config import PFSConfig
from repro.pfs.locks import LockMode, RangeLockManager
from repro.pfs.servers import DataServer, MetadataServer, stripe_ranges
from repro.pfs.storage import FileStore, ReadOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import CacheDropEvent, CrashEvent


@dataclass
class PFSStats:
    """Aggregate counters for one simulated run."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    stale_reads: int = 0
    stale_bytes: int = 0
    commits: int = 0
    opens: int = 0
    closes: int = 0
    makespan: float = 0.0
    per_client_time: dict[int, float] = field(default_factory=dict)
    #: fault-tolerance accounting (all zero on a fault-free run)
    retries: int = 0
    giveups: int = 0
    per_client_retries: dict[int, int] = field(default_factory=dict)


class PFSimulator:
    """Shared state of one simulated parallel file system."""

    def __init__(self, config: PFSConfig | None = None,
                 injector: "FaultInjector | None" = None):
        self.config = config or PFSConfig()
        self.injector = injector
        self.mds = MetadataServer(self.config.mds_service_time)
        self.osts = [DataServer(i, self.config.ost_per_op,
                                self.config.ost_per_byte)
                     for i in range(self.config.n_data_servers)]
        self.locks = RangeLockManager(
            self.mds, granularity=self.config.lock_granularity)
        self.files: dict[str, FileStore] = {}
        self.clients: dict[int, "PFSClient"] = {}
        self.stats = PFSStats()
        # observability mirror of PFSStats (no-ops when metrics are off)
        reg = obsreg.current()
        self._obs = reg
        self._obs_reads = reg.counter("pfs.reads")
        self._obs_writes = reg.counter("pfs.writes")
        self._obs_bytes_read = reg.counter("pfs.bytes_read")
        self._obs_bytes_written = reg.counter("pfs.bytes_written")
        self._obs_stale_reads = reg.counter("pfs.stale_reads")
        self._obs_opens = reg.counter("pfs.opens")
        self._obs_closes = reg.counter("pfs.closes")
        self._obs_commits = reg.counter("pfs.commits")
        self._obs_retries = reg.counter("pfs.retries")
        self._obs_giveups = reg.counter("pfs.giveups")
        self._obs_faults = reg.counter("pfs.faults_fired")

    def client(self, client_id: int) -> "PFSClient":
        handle = PFSClient(self, client_id)
        self.clients[client_id] = handle
        return handle

    def store(self, path: str) -> FileStore:
        st = self.files.get(path)
        if st is None:
            st = FileStore(
                path, self.config.semantics_for(path),
                same_process_ordering=self.config.same_process_ordering,
                eventual_delay=self.config.eventual_delay)
            self.files[path] = st
        return st

    # -- fault plumbing ----------------------------------------------------------

    def op_started(self, now: float) -> None:
        """Called once per client operation: advance the injector's op
        clock and fire every scheduled fault whose trigger has passed."""
        if self.injector is None:
            return
        self.injector.note_op()
        self.poll_faults(now)

    def poll_faults(self, now: float) -> None:
        """Fire due scheduled faults (crashes, cache drops) at ``now``."""
        if self.injector is None:
            return
        for event in self.injector.take_due(now):
            self._apply_fault(event, now)

    def _apply_fault(self, event: "CrashEvent | CacheDropEvent",
                     now: float) -> None:
        from repro.faults.plan import CacheDropEvent, CrashEvent, FaultKind
        inj = self.injector
        assert inj is not None
        cfg = self.config
        self._obs_faults.inc()
        self._obs.event("pfs.fault", kind=type(event).__name__, t=now)
        if isinstance(event, CrashEvent):
            inj.stats.crashes_fired += 1
            restart = now + event.downtime
            if event.target == "mds":
                self.mds.crash(now, restart)
                detail = f"journal={'on' if cfg.mds_journal else 'OFF'}"
                if not cfg.mds_journal:
                    for _, st in sorted(self.files.items()):
                        rec = st.apply_mds_loss(now)
                        inj.stats.extents_discarded += len(rec.discarded)
                inj.record(FaultKind.MDS_CRASH, now, target="mds",
                           detail=detail)
            else:
                idx = event.ost_index % cfg.n_data_servers
                self.osts[idx].crash(now, restart)
                for _, st in sorted(self.files.items()):
                    rec = st.apply_ost_crash(
                        idx, now, stripe_size=cfg.stripe_size,
                        n_servers=cfg.n_data_servers,
                        broken_recovery=inj.plan.broken_recovery)
                    inj.stats.extents_discarded += len(rec.discarded)
                    inj.stats.extents_torn += len(rec.torn)
                inj.record(
                    FaultKind.OST_CRASH, now, target=f"ost:{idx}",
                    detail=f"epoch={self.osts[idx].epoch} "
                           f"downtime={event.downtime:g}")
        elif isinstance(event, CacheDropEvent):
            inj.stats.cache_drops_fired += 1
            client = self.clients.get(event.client)
            lost: list[tuple[str, int, int]] = []
            if client is not None and client.cache is not None:
                lost = client.cache.drop()
                for path, off, nbytes in lost:
                    rec = self.store(path).discard_unflushed(
                        event.client, off, off + nbytes, now)
                    inj.stats.extents_discarded += len(rec.discarded)
            inj.record(FaultKind.CACHE_DROP, now,
                       target=f"client:{event.client}",
                       detail=f"{len(lost)} dirty buffer(s)")

    # -- end-of-run ------------------------------------------------------------

    def settle(self) -> dict[str, bytes]:
        """Final content of every file after all clients are done."""
        order = self.config.settle_order
        return {p: st.settle(order) for p, st in sorted(self.files.items())}

    def posix_settle(self) -> dict[str, bytes]:
        return {p: st.posix_settle() for p, st in sorted(self.files.items())}

    def corrupted_files(self) -> list[str]:
        """Files whose settled content differs from the POSIX outcome.

        Stores without any write (files opened or created but never
        written) settle to ``b""`` on every PFS and are skipped cheaply.
        """
        order = self.config.settle_order
        return [p for p, st in sorted(self.files.items())
                if st.extents and st.settle(order) != st.posix_settle()]

    def nondeterministic_files(self) -> list[str]:
        """Files holding hazardous (mutually unordered, overlapping)
        cross-client writes: their final content is undefined under this
        semantics, whatever order the PFS happens to pick."""
        return [p for p, st in sorted(self.files.items())
                if st.extents and st.hazard_pairs()]


class PFSClient:
    """One process's connection to the PFS, with its own virtual clock."""

    def __init__(self, sim: PFSimulator, client_id: int):
        self.sim = sim
        self.client_id = client_id
        self.now = 0.0
        self._open_times: dict[str, float] = {}
        cfg = sim.config
        self.cache: ClientCache | None = (
            ClientCache(writeback_limit=cfg.writeback_limit,
                        readahead=cfg.readahead)
            if cfg.client_cache
            and cfg.semantics is not Semantics.STRONG else None)

    # -- plumbing ----------------------------------------------------------------

    @property
    def _cfg(self) -> PFSConfig:
        return self.sim.config

    def advance_to(self, t: float) -> None:
        """Move this client's clock forward (replay arrival times)."""
        if t > self.now:
            self.now = t

    def _finish(self, t: float) -> None:
        self.now = t
        stats = self.sim.stats
        stats.makespan = max(stats.makespan, t)
        stats.per_client_time[self.client_id] = self.now

    def _attempt(self, op: str, path: str,
                 fn: Callable[[], float]) -> float:
        """Run one server-side operation under the retry policy.

        ``fn`` charges the attempt against the servers starting from
        ``self.now`` and returns the completion time; it raises
        :class:`PFSFaultError` when a server refuses (crash downtime) or
        an error is injected.  Each retry backs off exponentially with
        seeded jitter, advancing this client's clock, before reissuing.
        """
        sim = self.sim
        inj = sim.injector
        policy = self._cfg.retry
        attempt = 0
        while True:
            err: PFSFaultError | None = None
            if inj is not None and inj.draw_error(
                    op, path, self.client_id, self.now):
                err = PFSFaultError(
                    f"injected transient error: {op} on {path}")
            else:
                try:
                    return fn()
                except PFSFaultError as exc:
                    err = exc
            attempt += 1
            if attempt >= policy.max_attempts:
                sim.stats.giveups += 1
                sim._obs_giveups.inc()
                raise PFSGiveUpError(
                    f"client {self.client_id} gave up on {op} {path} "
                    f"after {attempt} attempt(s): {err}",
                    client_id=self.client_id, op=op,
                    attempts=attempt) from err
            sim.stats.retries += 1
            sim._obs_retries.inc()
            sim.stats.per_client_retries[self.client_id] = \
                sim.stats.per_client_retries.get(self.client_id, 0) + 1
            u = inj.jitter(self.client_id) if inj is not None else 0.0
            self.now += policy.delay(attempt - 1, u)
            sim.poll_faults(self.now)

    def _data_path(self, path: str, offset: int, count: int,
                   is_write: bool = True) -> float:
        """Charge locks + striped OST service; returns completion time."""
        t = self.now + self._cfg.client_overhead
        needs_lock = self._cfg.locks_for(path) > 0
        if needs_lock and self._cfg.lock_mode == "range":
            # hold time approximates the op's OST service time
            hold = (self._cfg.ost_per_op
                    + count * self._cfg.ost_per_byte
                    + self._cfg.network_rtt)
            mode = LockMode.EXCLUSIVE if is_write else LockMode.SHARED
            t = self.sim.locks.acquire(
                self.client_id, path, offset, offset + count, mode,
                t + self._cfg.network_rtt / 2, hold) \
                + self._cfg.network_rtt / 2
        elif needs_lock:
            t = self.sim.mds.lock(t + self._cfg.network_rtt / 2) \
                + self._cfg.network_rtt / 2
        completion = t
        for server, nbytes in stripe_ranges(
                offset, count, self._cfg.stripe_size,
                self._cfg.n_data_servers):
            done = self.sim.osts[server].transfer(
                t + self._cfg.network_rtt / 2, nbytes) \
                + self._cfg.network_rtt / 2
            completion = max(completion, done)
        return completion

    def _data_op(self, op: str, path: str, offset: int, count: int,
                 is_write: bool) -> float:
        return self._attempt(
            op, path,
            lambda: self._data_path(path, offset, count,
                                    is_write=is_write))

    def _namespace_op(self, op: str, path: str) -> float:
        def fn() -> float:
            return self.sim.mds.namespace_op(
                self.now + self._cfg.client_overhead
                + self._cfg.network_rtt / 2) + self._cfg.network_rtt / 2
        return self._attempt(op, path, fn)

    def _publish(self, path: str, t: float) -> None:
        """Publish the client's writes and journal the commit record."""
        journaled = self._cfg.mds_journal
        n = self.sim.store(path).publish(self.client_id, t,
                                         durable=journaled)
        if journaled and n:
            self.sim.mds.journal_publish(t, self.client_id, path, n)

    # -- namespace ------------------------------------------------------------------

    def open(self, path: str) -> None:
        self.sim.op_started(self.now)
        if self.cache is not None:
            self.cache.invalidate(path)  # close-to-open revalidation
        self.sim.store(path)  # the file exists even if never written
        t = self._namespace_op("open", path)
        self._open_times[path] = t
        self.sim.stats.opens += 1
        self.sim._obs_opens.inc()
        self._finish(t)

    def close(self, path: str) -> None:
        self.sim.op_started(self.now)
        self._drain_cache(path)
        t = self._namespace_op("close", path)
        self._publish(path, t)
        self._open_times.pop(path, None)
        self.sim.stats.closes += 1
        self.sim._obs_closes.inc()
        self._finish(t)

    def commit(self, path: str) -> None:
        """fsync-style commit: publishes under commit semantics only."""
        self.sim.op_started(self.now)
        self._drain_cache(path)
        t = self.now + self._cfg.client_overhead + self._cfg.network_rtt
        if self._cfg.semantics_for(path) is Semantics.COMMIT:
            self._publish(path, t)
        self.sim.stats.commits += 1
        self.sim._obs_commits.inc()
        self._finish(t)

    def laminate(self, path: str) -> None:
        """UnifyFS lamination: publish everything, file goes read-only."""
        self.sim.op_started(self.now)
        t = self._namespace_op("laminate", path)
        self.sim.store(path).laminate(t)
        self._finish(t)

    def _drain_cache(self, path: str) -> None:
        """Write out buffered segments before a commit/close."""
        if self.cache is None:
            return
        delay = (self.sim.injector.plan.flush_delay
                 if self.sim.injector is not None else 0.0)
        done = self.now
        for seg_off, seg_n in self.cache.flush(path):
            flushed = self._data_op("flush", path, seg_off, seg_n,
                                    is_write=True)
            done = max(done, flushed + delay)
        if done > self.now:
            self._finish(done)

    # -- data -----------------------------------------------------------------------

    def write(self, path: str, offset: int, data: bytes) -> float:
        if not data:
            raise PFSError("zero-length PFS write")
        self.sim.op_started(self.now)
        if self.cache is not None:
            done = self.now + self._cfg.client_overhead
            for seg_off, seg_n in self.cache.write(path, offset,
                                                   len(data)):
                done = max(done, self._data_op("write", path, seg_off,
                                               seg_n, is_write=True))
        else:
            done = self._data_op("write", path, offset, len(data),
                                 is_write=True)
        self.sim.store(path).write(self.client_id, offset, bytes(data),
                                   done)
        st = self.sim.stats
        st.writes += 1
        st.bytes_written += len(data)
        self.sim._obs_writes.inc()
        self.sim._obs_bytes_written.inc(len(data))
        self._finish(done)
        return done

    def read(self, path: str, offset: int, count: int) -> ReadOutcome:
        self.sim.op_started(self.now)
        if self.cache is not None:
            fetch = self.cache.read(path, offset, count)
            if fetch is None:
                done = self.now + self._cfg.client_overhead
            else:
                done = self._data_op("read", path, fetch[0], fetch[1],
                                     is_write=False)
        else:
            done = self._data_op("read", path, offset, count,
                                 is_write=False)
        outcome = self.sim.store(path).read(
            self.client_id, offset, count, done,
            client_open_time=self._open_times.get(path, math.inf))
        st = self.sim.stats
        st.reads += 1
        st.bytes_read += count
        self.sim._obs_reads.inc()
        self.sim._obs_bytes_read.inc(count)
        if outcome.is_stale:
            st.stale_reads += 1
            st.stale_bytes += outcome.stale_bytes
            self.sim._obs_stale_reads.inc()
        self._finish(done)
        return outcome
