"""The cooperative, deterministic multi-rank execution engine.

Ranks run as OS threads but execute strictly one at a time.  A thread gives
up control only at *checkpoints* (:meth:`SimEngine.checkpoint`,
:meth:`SimEngine.wait_until`), and the engine always resumes the runnable
rank with the smallest ``(true virtual time, rank)`` key.  Together with
seeded RNGs this makes entire application runs — including every trace
timestamp — bit-reproducible, regardless of OS scheduling.

Runnable ranks wait in a *ready heap* keyed on ``(true_time, rank)``.  A
rank's key cannot change while it sits there (only the running rank moves
its own clock), so a switch costs O(log N).

Blocking is predicate-based, and the predicate may read any shared state
(only one rank runs at a time, so plain Python data structures are safe).
A wait on state that one writer owns carries a *wait key*: the rank parks
on that key's queue, the writer calls :meth:`SimEngine.notify` after
changing the state, and the parked predicates are re-checked at the next
dispatch.  The MPI layer keys a receive by its mailbox ``("p2p", src, dst,
tag)`` and a collective by ``("coll", index)``.  A wait without a key is
*polled*: its predicate is re-checked at every dispatch.  Two waits stay
polled because no single writer owns what they read — an ``ANY_SOURCE``
receive, whose matching rule scans every rank (O(N) per check), and the
Ckpt-IO WAL drain, whose queue fills from :meth:`SimEngine.schedule`
callbacks.  So a switch costs O(log N) plus one check per polled waiter.

A run deadlocks when no rank is runnable, no scheduled callback is
pending, and some rank is still blocked; every rank is then woken and
:class:`~repro.errors.DeadlockError` names each blocked rank's reason.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.errors import DeadlockError, SimulationError
from repro.obs import registry as obs
from repro.sim.clock import RankClock
from repro.util.rng import make_rng

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"

#: public names for :meth:`SimEngine.rank_status` values
RANK_READY = _READY
RANK_RUNNING = _RUNNING
RANK_BLOCKED = _BLOCKED
RANK_DONE = _DONE


@dataclass
class SimConfig:
    """Knobs of a simulated run.

    ``clock_skew_us`` draws a fixed per-rank skew uniformly from
    ``[-clock_skew_us, +clock_skew_us]`` microseconds (the paper observed
    < 20 us on Quartz).  The cost fields are the virtual-time charges that
    the POSIX/MPI layers apply per operation; absolute values are
    arbitrary, only their ratios shape the traces.
    """

    nranks: int = 8
    seed: int = 7
    clock_skew_us: float = 0.0
    # virtual-time costs (seconds)
    cpu_op_cost: float = 1e-7
    io_meta_cost: float = 50e-6
    io_byte_cost: float = 5e-9
    net_latency: float = 2e-6
    net_byte_cost: float = 1e-9
    barrier_cost: float = 5e-6

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise SimulationError(f"nranks must be >= 1, got {self.nranks}")


class _RankState:
    __slots__ = ("clock", "status", "reason", "predicate", "key", "event",
                 "thread")

    def __init__(self, clock: RankClock):
        self.clock = clock
        self.status = _READY
        self.reason = ""
        self.predicate: Callable[[], bool] | None = None
        self.key: Hashable | None = None
        self.event = threading.Event()
        self.thread: threading.Thread | None = None


@dataclass
class RankContext:
    """Everything a rank's program sees: its identity, clock, engine, rng.

    The application harness (:mod:`repro.apps.base`) attaches the MPI
    communicator, the traced POSIX API, and the I/O libraries as extra
    attributes in ``services``.
    """

    rank: int
    nranks: int
    engine: "SimEngine"
    clock: RankClock
    rng: Any
    services: dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        services = object.__getattribute__(self, "services")
        try:
            return services[name]
        except KeyError:
            raise AttributeError(name) from None


class SimEngine:
    """Owns the rank threads, their clocks, and the scheduling discipline."""

    def __init__(self, config: SimConfig):
        self.config = config
        skews = self._draw_skews(config)
        self._ranks = [_RankState(RankClock(r, skews[r]))
                       for r in range(config.nranks)]
        self._failure: BaseException | None = None
        self._main_event = threading.Event()
        self._started = False
        #: runnable ranks as ``(true_time, rank)``
        self._ready: list[tuple[float, int]] = []
        #: keyed waits: wait key -> ranks parked on it
        self._parked: dict[Hashable, list[_RankState]] = {}
        #: keyed waits notified since the last dispatch
        self._notified: list[_RankState] = []
        #: waits without a key, re-checked at every dispatch
        self._polled: list[_RankState] = []
        #: virtual-time callbacks, fired by the dispatcher in (t, FIFO)
        #: order before any rank whose clock has passed them runs
        self._scheduled: list[
            tuple[float, int, Callable[[float], None]]] = []
        self._sched_counter = itertools.count()
        # observability instruments, captured once (no-ops when metrics
        # are off, so the dispatch loop pays one dead call per event)
        reg = obs.current()
        self._obs_scheduled = reg.counter("sim.events_scheduled")
        self._obs_fired = reg.counter("sim.events_fired")
        self._obs_checkpoints = reg.counter("sim.checkpoints")
        self._obs_blocks = reg.counter("sim.blocks")
        self._obs_vtime = reg.gauge("sim.virtual_time")
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

    def rank_status(self, rank: int) -> tuple[str, float]:
        """(status, true_time) of a rank, for matching/safety rules."""
        state = self._ranks[rank]
        return state.status, state.clock.true_time

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
                        clock=state.clock,
                        rng=make_rng(self.config.seed, r))
            for r, state in enumerate(self._ranks)
        ]
        if services_factory is not None:
            for ctx in contexts:
                ctx.services.update(services_factory(ctx))

        def runner(rank: int) -> None:
            state = self._ranks[rank]
            state.event.wait()  # wait to be scheduled the first time
            if self._failure is not None:
                self._finish_rank(rank)
                return
            try:
                results[rank] = program(contexts[rank])
            except BaseException as exc:  # propagate to the driving thread
                if self._failure is None:
                    self._failure = exc
            finally:
                self._finish_rank(rank)

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
        self._main_event.wait()
        for state in self._ranks:
            assert state.thread is not None
            state.thread.join()
        if self._failure is not None:
            raise self._failure
        return results

    # -- checkpoints called from inside rank threads ------------------------------

    def checkpoint(self, rank: int) -> None:
        """Offer the scheduler a chance to switch to an earlier-time rank."""
        state = self._ranks[rank]
        state.event.clear()
        self._obs_checkpoints.inc()
        self._make_ready(state)
        self._dispatch_next()
        state.event.wait()
        self._raise_if_failed()

    def wait_until(self, rank: int, predicate: Callable[[], bool],
                   reason: str, key: Hashable | None = None) -> None:
        """Block this rank until ``predicate()`` is true.

        The predicate is evaluated under the engine's one-runner-at-a-time
        discipline, so it may read any shared state without extra locking.
        With a ``key`` it is re-checked only after :meth:`notify` of that
        key; without one it is re-checked at every dispatch.
        """
        state = self._ranks[rank]
        while not predicate():
            state.status = _BLOCKED
            state.reason = reason
            state.predicate = predicate
            state.event.clear()
            self._obs_blocks.inc()
            self._park(state, key)
            self._dispatch_next()
            state.event.wait()
            self._raise_if_failed()
        state.predicate = None
        state.reason = ""
        state.status = _RUNNING

    def notify(self, key: Hashable) -> None:
        """Re-check, at the next dispatch, the ranks waiting on ``key``.

        Called by whoever changed the state those waits read (a message
        posted to a mailbox, a collective completed).
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
        self._obs_scheduled.inc()

    # -- internals -----------------------------------------------------------------

    def _make_ready(self, state: _RankState) -> None:
        state.status = _READY
        heapq.heappush(self._ready,
                       (state.clock.true_time, state.clock.rank))

    def _park(self, state: _RankState, key: Hashable | None) -> None:
        state.key = key
        if key is None:
            self._polled.append(state)
        else:
            self._parked.setdefault(key, []).append(state)

    def _wake_satisfied(self) -> None:
        """Move notified and polled waits whose predicate holds to ready."""
        if not (self._notified or self._polled):
            return
        waiting = self._notified + self._polled
        self._notified, self._polled = [], []
        for state in waiting:
            if state.predicate():
                self._make_ready(state)
            else:
                self._park(state, state.key)

    def _finish_rank(self, rank: int) -> None:
        self._ranks[rank].status = _DONE
        self._dispatch_next()

    def _raise_if_failed(self) -> None:
        if self._failure is not None:
            # Re-raised inside a rank thread to unwind it; the original
            # exception object still reaches the driving thread.
            raise SimulationError("simulation aborted") from self._failure

    def _dispatch_next(self) -> None:
        if self._failure is not None:
            self._wake_everyone()
            return
        ready = self._ready
        while True:
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
            self._obs_vtime.set_max(t)
            state = self._ranks[nxt]
            state.status = _RUNNING
            state.event.set()
            return
        self._finish_or_deadlock()

    def _finish_or_deadlock(self) -> None:
        """Nothing is runnable or scheduled: the run is over either way."""
        blocked = {s.clock.rank: s.reason
                   for s in self._ranks if s.status == _BLOCKED}
        if blocked:
            self._failure = DeadlockError(
                f"deadlock: {len(blocked)} rank(s) blocked, none runnable",
                blocked)
            self._wake_everyone()
            return
        # Everyone done.
        self._main_event.set()

    def _wake_everyone(self) -> None:
        for state in self._ranks:
            state.event.set()
        self._main_event.set()
