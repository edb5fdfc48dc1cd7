"""The polling scheduler, kept as the oracle for :class:`SimEngine`.

:class:`ReferenceEngine` re-checks every blocked rank's predicate at each
dispatch and ignores wait keys and notifications, then resumes the
runnable rank with the smallest ``(true_time, rank)``.  That costs O(N)
per switch but cannot miss a wakeup.  ``schedule()`` callbacks and the
deadlock rule are shared with :class:`SimEngine`, so any program must
produce the same trace on both engines.
"""

from __future__ import annotations

import heapq

from repro.sim.engine import RANK_BLOCKED, RANK_READY, RANK_RUNNING, SimEngine


class ReferenceEngine(SimEngine):
    """SimEngine with the keyed ready heap and wait queues switched off."""

    def notify(self, key) -> None:
        pass

    def _make_ready(self, state) -> None:
        state.status = RANK_READY

    def _park(self, state, key) -> None:
        pass

    def _dispatch_next(self) -> None:
        if self._failure is not None:
            self._wake_everyone()
            return
        while True:
            for state in self._ranks:
                if state.status == RANK_BLOCKED:
                    try:
                        ready = state.predicate()
                    except BaseException as exc:
                        self._failure = exc
                        self._wake_everyone()
                        return
                    if ready:
                        state.status = RANK_READY
            candidates = [(s.clock.true_time, s.clock.rank)
                          for s in self._ranks if s.status == RANK_READY]
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
            state = self._ranks[nxt]
            state.status = RANK_RUNNING
            state.event.set()
            return
        self._finish_or_deadlock()
