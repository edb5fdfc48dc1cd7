"""Per-rank virtual clocks with injectable skew.

The paper (Section 5.2) orders I/O operations from different nodes by local
timestamps and argues this is safe because observed clock skew (< 20 us) is
far smaller than the gap between synchronized conflicting operations (tens
of ms).  To reproduce and *test* that argument we model two notions of time:

* ``true`` time — the simulator's global virtual time, used for scheduling
  and as ground truth;
* ``local`` time — what the rank's own clock reads, i.e. true time plus a
  fixed per-rank skew.  Trace timestamps come from local time, exactly as
  Recorder's come from each node's system clock.

The tracer then re-aligns local timestamps with the barrier-exit trick from
the paper, and tests verify conflict detection is robust for skews smaller
than the inter-operation gap.
"""

from __future__ import annotations

from math import inf


class RankClock:
    """Virtual clock of one rank.

    ``advance`` moves true time forward; ``sync_to`` implements the
    "cannot observe an event before it happened" rule used by message
    receipt and barrier exit.  ``true_time`` (the global virtual time of
    the rank's next action) and ``local_time`` (what the rank's own,
    possibly skewed, clock reads: ``true_time + skew``) are plain fields,
    read on every traced call; only those two methods write them.
    """

    __slots__ = ("rank", "skew", "true_time", "local_time")

    def __init__(self, rank: int, skew: float = 0.0):
        self.rank = int(rank)
        self.skew = float(skew)
        self.true_time = 0.0
        self.local_time = 0.0 + self.skew

    def advance(self, dt: float) -> float:
        """Move forward by ``dt`` (finite, >= 0) seconds of virtual time."""
        if not 0 <= dt < inf:  # also false for NaN
            raise ValueError(f"cannot advance clock by dt {dt}: it must be "
                             f"finite and >= 0")
        t = self.true_time = self.true_time + dt
        self.local_time = t + self.skew
        return t

    def sync_to(self, true_time: float) -> float:
        """Raise true time to at least ``true_time`` (never moves backward)."""
        if true_time > self.true_time:
            self.true_time = true_time
            self.local_time = true_time + self.skew
        return self.true_time
