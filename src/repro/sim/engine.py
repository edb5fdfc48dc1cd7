"""The cooperative, deterministic multi-rank execution engine.

Ranks run as OS threads but execute strictly one at a time.  A thread gives
up control only at *checkpoints* (:meth:`SimEngine.checkpoint`,
:meth:`SimEngine.wait_until`), and the engine always resumes the runnable
rank with the smallest ``(true virtual time, rank)`` key.  Together with
seeded RNGs this makes entire application runs — including every trace
timestamp — bit-reproducible, regardless of OS scheduling.

Runnable ranks wait in a *ready heap* keyed on ``(true_time, rank)``.  A
rank's key cannot change while it sits there, so a switch costs O(log N).
Only two things move a clock: the running rank moves its own, and the
rank that completes a collective moves its parked members' clocks to the
exit time.  Parked ranks are not in the heap, so each member wakes at
the key its next step really has.

Control passes by *run permits*: each rank owns a raw lock that is held
whenever the rank may not run.  The dispatcher releases the next rank's
permit, and a rank that gives up control waits by acquiring its own;
the driving thread waits on a permit of its own until the run is over.
On an abort every held permit is released once, and a rank that calls
back into the engine after that raises at once instead of waiting.
Each rank thread runs under the Linux ``SCHED_BATCH`` policy, so a rank
woken by a permit release does not preempt the rank that released it:
one OS context switch per handoff (see :func:`_batch_policy`).

Blocking is predicate-based, and the predicate may read any shared state
(only one rank runs at a time, so plain Python data structures are safe).
Every wait carries a *wait key*: the rank parks on that key's queue,
whoever changes the state the predicate reads calls
:meth:`SimEngine.notify` afterwards, and only the ranks parked on that key
are re-checked at the next dispatch.  The MPI layer keys a receive by its
mailbox ``("p2p", src, dst, tag)`` and a collective by ``("coll", index)``;
the Ckpt-IO WAL drain parks on ``("wal", rank)``, which the
:meth:`SimEngine.schedule` callback that queues a flush notifies.  So a
switch costs O(log N) plus one check per notified waiter.  A waiter found
satisfied there resumes without checking its predicate again, so a
predicate must stay true once it holds until its own rank runs: only the
waiting rank consumes what it waits for.  A checkpoint that would
dispatch its own rank again at once (nothing notified, the ready heap's
head later, no callback due) costs neither: the rank runs on.

The per-event path is the floor plus bookkeeping, so it is kept short:
a checkpoint or a wait pushes, parks and awaits its permit inline, and
the engine touches its :mod:`repro.obs` instruments only when metrics
were on when it was built (which is when it captures them).

A run deadlocks when no rank is runnable, no scheduled callback is
pending, and some rank is still blocked; every rank is then woken and
:class:`~repro.errors.DeadlockError` names each blocked rank's reason.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.errors import DeadlockError, SimulationError
from repro.obs import registry as obs
from repro.sim.clock import RankClock
from repro.util.rng import make_rng

try:
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # no per-thread resource usage on this platform
    RUSAGE_THREAD = None


@dataclass
class SimConfig:
    """Knobs of a simulated run.

    ``clock_skew_us`` draws a fixed per-rank skew uniformly from
    ``[-clock_skew_us, +clock_skew_us]`` microseconds (the paper observed
    < 20 us on Quartz).  The virtual-time cost of each operation is a
    constant of the layer that charges it (:mod:`repro.posix.api`,
    :mod:`repro.mpi.comm`); absolute values are arbitrary, only their
    ratios shape the traces.
    """

    nranks: int = 8
    seed: int = 7
    clock_skew_us: float = 0.0

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise SimulationError(f"nranks must be >= 1, got {self.nranks}")
        if self.seed < 0:
            raise SimulationError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.clock_skew_us)
                and self.clock_skew_us >= 0):
            raise SimulationError(f"clock_skew_us must be finite and >= 0, "
                                  f"got {self.clock_skew_us}")


def _batch_policy() -> None:
    """Put the calling thread under ``SCHED_BATCH`` if it runs ``SCHED_OTHER``.

    Under the default policy a woken thread preempts the one that woke
    it.  A rank woken by a permit release would preempt the releaser
    while the releaser still holds the GIL, sleep on the GIL, and be
    woken a second time.  A ``SCHED_BATCH`` thread does not preempt on
    wakeup, so the releaser runs on into its own permit wait, which
    drops the GIL, and the woken rank takes the GIL at once: one
    voluntary switch per handoff, the floor with one thread per rank.
    The policy needs no privilege and ends with the thread.  Where the
    platform lacks it, or refuses the call, the thread runs as it is.
    """
    if not (hasattr(os, "sched_setscheduler") and hasattr(os, "SCHED_BATCH")):
        return
    try:
        if os.sched_getscheduler(0) == os.SCHED_OTHER:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError:
        pass  # refused: the thread keeps the policy it has


def _held_lock() -> threading.Lock:
    """A raw lock, already acquired: a run permit nobody has granted."""
    lock = threading.Lock()
    lock.acquire()
    return lock


class _RankState:
    """One rank's clock, wait state, thread and run permit.

    The clock is moved by the rank itself while it runs, or, while it is
    parked in a collective, by the rank that completes that collective.

    The permit is a raw ``_thread`` lock (what ``threading.Lock()``
    returns; an Event would add a ``Condition`` and a Python-level waiter
    list to every handoff) that is held whenever the rank may not run.
    Dispatching the rank releases it; the rank waits for its turn by
    acquiring it again.
    """

    __slots__ = ("clock", "reason", "predicate", "key", "permit", "thread")

    def __init__(self, clock: RankClock):
        self.clock = clock
        self.reason = ""
        #: set while the rank waits in :meth:`SimEngine.wait_until`
        self.predicate: Callable[[], bool] | None = None
        self.key: Hashable | None = None
        self.permit = _held_lock()
        self.thread: threading.Thread | None = None


@dataclass
class RankContext:
    """Everything a rank's program sees: its identity, clock, engine, rng.

    The application harness (:mod:`repro.apps.base`) attaches the MPI
    communicator, the traced POSIX API, and the I/O libraries as extra
    attributes, listed in ``services`` (:meth:`SimEngine.run` sets them
    before any rank starts; a service cannot shadow a field).
    """

    rank: int
    nranks: int
    engine: "SimEngine"
    clock: RankClock
    services: dict[str, Any] = field(default_factory=dict)
    _rng: Any = field(default=None, init=False, repr=False, compare=False)

    @property
    def rng(self) -> Any:
        """This rank's seeded stream, built on first use from
        ``(seed, rank)``."""
        if self._rng is None:
            self._rng = make_rng(self.engine.config.seed, self.rank)
        return self._rng


class SimEngine:
    """Owns the rank threads, their clocks, and the scheduling discipline."""

    def __init__(self, config: SimConfig):
        self.config = config
        skews = self._draw_skews(config)
        self._ranks = [_RankState(RankClock(r, skews[r]))
                       for r in range(config.nranks)]
        self._failure: BaseException | None = None
        #: the driving thread's permit, released when the run is over
        self._main_permit = _held_lock()
        #: taken by the first abort and never released, so teardown
        #: runs once even when several threads abort at the same time
        self._teardown = threading.Lock()
        self._started = False
        #: runnable ranks as ``(true_time, rank)``
        self._ready: list[tuple[float, int]] = []
        #: keyed waits: wait key -> ranks parked on it
        self._parked: dict[Hashable, list[_RankState]] = {}
        #: keyed waits notified since the last dispatch
        self._notified: list[_RankState] = []
        #: virtual-time callbacks, fired by the dispatcher in (t, FIFO)
        #: order before any rank whose clock has passed them runs
        self._scheduled: list[
            tuple[float, int, Callable[[float], None]]] = []
        self._sched_counter = itertools.count()
        # observability instruments, captured once and called only when
        # metrics were on at construction, so a metrics-off event pays
        # one attribute test and no call
        reg = obs.current()
        self._metrics = obs.enabled()
        self._obs_scheduled = reg.counter("sim.events_scheduled")
        self._obs_fired = reg.counter("sim.events_fired")
        self._obs_checkpoints = reg.counter("sim.checkpoints")
        self._obs_blocks = reg.counter("sim.blocks")
        self._obs_vtime = reg.gauge("sim.virtual_time")
        self._obs_switches = reg.counter("sim.context_switches")
        self._obs_preemptions = reg.counter("sim.preemptions")
        #: each rank thread reads its own switch counts at exit
        self._count_switches = (self._metrics
                                and RUSAGE_THREAD is not None)
        if self._metrics:
            reg.counter("sim.engines").inc()
            reg.counter("sim.ranks").inc(config.nranks)

    @staticmethod
    def _draw_skews(config: SimConfig) -> list[float]:
        """Per-rank skews, drawn from one seeded stream."""
        if config.clock_skew_us <= 0:
            return [0.0] * config.nranks
        rng = make_rng(config.seed, 0xC10C)
        bound = config.clock_skew_us * 1e-6
        return rng.uniform(-bound, bound, size=config.nranks).tolist()

    # -- public API ------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.config.nranks

    def clock(self, rank: int) -> RankClock:
        return self._ranks[rank].clock

    def run(self, program: Callable[[RankContext], Any],
            services_factory: Callable[[RankContext], dict[str, Any]] | None = None,
            ) -> list[Any]:
        """Execute ``program`` SPMD on every rank; return per-rank results.

        ``services_factory`` may populate per-rank services (communicator,
        file APIs) before any rank starts; it receives the bare context and
        returns the services dict.
        """
        if self._started:
            raise SimulationError("a SimEngine can only run once")
        self._started = True

        results: list[Any] = [None] * self.nranks
        contexts = [
            RankContext(rank=r, nranks=self.nranks, engine=self,
                        clock=state.clock)
            for r, state in enumerate(self._ranks)
        ]
        if services_factory is not None:
            for ctx in contexts:
                ctx.services.update(services_factory(ctx))
                for name, service in ctx.services.items():
                    vars(ctx).setdefault(name, service)

        def runner(rank: int) -> None:
            _batch_policy()
            self._ranks[rank].permit.acquire()  # wait to be scheduled
            try:
                if self._failure is None:
                    results[rank] = program(contexts[rank])
            except BaseException as exc:  # propagate to the driving thread
                if self._failure is None:
                    self._failure = exc
            finally:
                if self._count_switches:
                    usage = getrusage(RUSAGE_THREAD)
                    self._obs_switches.inc(usage.ru_nvcsw)
                    self._obs_preemptions.inc(usage.ru_nivcsw)
                self._dispatch_next()

        started = 0
        try:
            for r, state in enumerate(self._ranks):
                state.thread = threading.Thread(
                    target=runner, args=(r,), name=f"simrank-{r}",
                    daemon=True)
                state.thread.start()
                started += 1
        except RuntimeError as exc:
            self._failure = SimulationError(
                f"nranks={self.nranks}: only {started} rank threads "
                f"could be started ({exc})")
            self._wake_everyone()
            for state in self._ranks[:started]:
                assert state.thread is not None
                state.thread.join()
            raise self._failure from exc

        for state in self._ranks:
            self._make_ready(state)
        self._dispatch_next()
        self._main_permit.acquire()
        for state in self._ranks:
            assert state.thread is not None
            state.thread.join()
        if self._failure is not None:
            raise self._failure
        return results

    # -- checkpoints called from inside rank threads ------------------------------

    def checkpoint(self, rank: int) -> None:
        """Offer the scheduler a chance to switch to an earlier-time rank.

        When the dispatch would pick this rank again at once — no wait
        was notified, the ready heap's head comes later, and no
        scheduled callback is due — the rank resumes without touching
        the heap or its permit.
        """
        state = self._ranks[rank]
        t = state.clock.true_time
        ready, scheduled = self._ready, self._scheduled
        if self._metrics:
            self._obs_checkpoints.inc()
        if (self._failure is None and not self._notified
                and (not ready or (t, rank) < ready[0])
                and (not scheduled or t < scheduled[0][0])):
            if self._metrics:
                self._obs_vtime.set_max(t)
            return
        heapq.heappush(ready, (t, rank))
        self._dispatch_next()
        # After an abort the permit is never granted again, so a rank
        # that catches the abort and calls back into the engine must not
        # wait; the exception is re-raised inside the rank thread to
        # unwind it, and the original reaches the driving thread.
        if self._failure is None:
            state.permit.acquire()
        if self._failure is not None:
            raise SimulationError("simulation aborted") from self._failure

    def wait_until(self, rank: int, predicate: Callable[[], bool],
                   reason: str | Callable[[int], str],
                   key: Hashable) -> None:
        """Block this rank until ``predicate()`` is true.

        The predicate is evaluated under the engine's one-runner-at-a-time
        discipline, so it may read any shared state without extra locking.
        It is re-checked only after :meth:`notify` of ``key``, so whatever
        changes the state it reads must notify that key, and the rank
        resumes as soon as that re-check passes, so it must stay true
        until then.  ``reason`` says what the rank waits for if the run
        deadlocks; it may be a function of the rank, formatted only then.
        """
        if predicate():
            return
        state = self._ranks[rank]
        state.reason = reason
        state.predicate = predicate
        if self._metrics:
            self._obs_blocks.inc()
        state.key = key
        self._parked.setdefault(key, []).append(state)
        self._dispatch_next()
        if self._failure is None:
            state.permit.acquire()
        if self._failure is not None:
            raise SimulationError("simulation aborted") from self._failure
        state.predicate = None
        state.reason = ""

    def notify(self, key: Hashable) -> None:
        """Re-check, at the next dispatch, the ranks waiting on ``key``.

        Called by whoever changed the state those waits read (a message
        posted to a mailbox, a collective completed, a flush queued).
        """
        parked = self._parked.pop(key, None)
        if parked is not None:
            self._notified.extend(parked)

    def advance(self, rank: int, dt: float) -> float:
        """Charge ``dt`` seconds of virtual time to ``rank``."""
        return self._ranks[rank].clock.advance(dt)

    def schedule(self, t: float, callback: Callable[[float], None]) -> None:
        """Run ``callback(t)`` once virtual time reaches ``t``.

        The callback fires under the engine's one-runner-at-a-time
        discipline, before any rank whose clock has passed ``t`` is
        dispatched, so it may mutate shared state (crash a simulated
        server, drop a cache) without extra locking.  Callbacks with
        equal times fire in registration order; determinism of the
        schedule follows from determinism of the run.
        """
        heapq.heappush(self._scheduled,
                       (t, next(self._sched_counter), callback))
        if self._metrics:
            self._obs_scheduled.inc()

    # -- internals -----------------------------------------------------------------

    def _make_ready(self, state: _RankState) -> None:
        heapq.heappush(self._ready,
                       (state.clock.true_time, state.clock.rank))

    def _wake_satisfied(self) -> None:
        """Move notified waits whose predicate holds to ready."""
        notified, self._notified = self._notified, []
        ready = self._ready
        for state in notified:
            if state.predicate():
                heapq.heappush(ready, (state.clock.true_time,
                                       state.clock.rank))
            else:
                self._parked.setdefault(state.key, []).append(state)

    def _dispatch_next(self) -> None:
        if self._failure is not None:
            self._wake_everyone()
            return
        ready = self._ready
        while True:
            if self._notified:
                try:
                    self._wake_satisfied()
                except BaseException as exc:
                    self._failure = exc
                    self._wake_everyone()
                    return
            # Fire scheduled virtual-time callbacks that come before the
            # next runnable rank (or any time no rank is runnable — a
            # callback may be exactly what unblocks one).
            if self._scheduled and (
                    not ready or self._scheduled[0][0] <= ready[0][0]):
                t, _, callback = heapq.heappop(self._scheduled)
                if self._metrics:
                    self._obs_fired.inc()
                try:
                    callback(t)
                except BaseException as exc:
                    self._failure = exc
                    self._wake_everyone()
                    return
                continue  # state may have changed; re-evaluate
            break
        if ready:
            t, nxt = heapq.heappop(ready)
            if self._metrics:
                self._obs_vtime.set_max(t)
            self._ranks[nxt].permit.release()
            return
        self._finish_or_deadlock()

    def _finish_or_deadlock(self) -> None:
        """Nothing is runnable or scheduled: the run is over either way."""
        blocked = {s.clock.rank: s.reason if isinstance(s.reason, str)
                   else s.reason(s.clock.rank)
                   for s in self._ranks if s.predicate is not None}
        if blocked:
            self._failure = DeadlockError(
                f"deadlock: {len(blocked)} rank(s) blocked, none runnable",
                blocked)
            self._wake_everyone()
            return
        # Everyone done.
        self._main_permit.release()

    def _wake_everyone(self) -> None:
        """Abort: release every held permit, once per run.

        Every rank thread calls this as it unwinds, and releasing a raw
        lock that is not held raises, so only the caller that takes the
        teardown latch releases anything.
        """
        if not self._teardown.acquire(blocking=False):
            return
        for state in self._ranks:
            if state.permit.locked():
                state.permit.release()
        self._main_permit.release()
