"""The polling scheduler, kept as the oracle for :class:`SimEngine`.

:class:`ReferenceEngine` re-checks every blocked rank's predicate at each
dispatch and ignores wait keys and notifications, then resumes the
runnable rank with the smallest ``(true_time, rank)``.  That costs O(N)
per switch but cannot miss a wakeup.  ``schedule()`` callbacks and the
deadlock rule are shared with :class:`SimEngine`, so any program must
produce the same trace on both engines.  :func:`resume_order` runs a
program on either engine and logs the order in which ranks resumed.
"""

from __future__ import annotations

import heapq
from unittest import mock

from repro.apps import base
from repro.errors import SimulationError
from repro.sim.engine import SimEngine


class ReferenceEngine(SimEngine):
    """SimEngine with the keyed ready heap, the wait queues and the
    self-resume switched off."""

    def __init__(self, config) -> None:
        super().__init__(config)
        #: ranks that may be dispatched; a rank waiting in ``wait_until``
        #: and not in this set is blocked
        self._runnable: set[int] = set()

    def checkpoint(self, rank) -> None:
        """Dispatch at every checkpoint: the oracle has no self-resume."""
        state = self._ranks[rank]
        self._obs_checkpoints.inc()
        self._make_ready(state)
        self._dispatch_next()
        if self._failure is None:
            state.permit.acquire()
        if self._failure is not None:
            raise SimulationError("simulation aborted") from self._failure

    def notify(self, key) -> None:
        """Nothing: the wait queues ``wait_until`` parks on are never read."""

    def _make_ready(self, state) -> None:
        self._runnable.add(state.clock.rank)

    def _dispatch_next(self) -> None:
        if self._failure is not None:
            self._wake_everyone()
            return
        runnable = self._runnable
        while True:
            for state in self._ranks:
                rank = state.clock.rank
                if state.predicate is not None and rank not in runnable:
                    try:
                        ready = state.predicate()
                    except BaseException as exc:
                        self._failure = exc
                        self._wake_everyone()
                        return
                    if ready:
                        runnable.add(rank)
            candidates = [(self._ranks[r].clock.true_time, r)
                          for r in runnable]
            if self._scheduled and (
                    not candidates
                    or self._scheduled[0][0] <= min(candidates)[0]):
                t, _, callback = heapq.heappop(self._scheduled)
                self._obs_fired.inc()
                try:
                    callback(t)
                except BaseException as exc:
                    self._failure = exc
                    self._wake_everyone()
                    return
                continue
            break
        if candidates:
            t, nxt = min(candidates)
            self._obs_vtime.set_max(t)
            runnable.discard(nxt)
            self._ranks[nxt].permit.release()
            return
        self._finish_or_deadlock()


def resume_order(engine_cls, execute):
    """What ``execute()`` returns with ``engine_cls`` as the application
    harness's engine, and the order in which ranks resumed from it."""
    resumed: list[int] = []
    checkpoint, wait_until = engine_cls.checkpoint, engine_cls.wait_until

    def logged_checkpoint(self, rank):
        checkpoint(self, rank)
        resumed.append(rank)

    def logged_wait_until(self, rank, *args, **kwargs):
        wait_until(self, rank, *args, **kwargs)
        resumed.append(rank)

    with mock.patch.object(base, "SimEngine", engine_cls), \
            mock.patch.object(engine_cls, "checkpoint", logged_checkpoint), \
            mock.patch.object(engine_cls, "wait_until", logged_wait_until):
        result = execute()
    return result, resumed
