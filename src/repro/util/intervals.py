"""Half-open byte-range interval algebra.

All file extents in this library are half-open ``[start, stop)`` byte
ranges.  (The paper's Algorithm 1 uses inclusive ``[os, oe]`` offsets; the
conversion is ``stop = oe + 1``.  Half-open ranges compose without the
pervasive ±1 bookkeeping, so everything internal uses them and the
paper-facing record layer converts at the edge.)

:class:`IntervalSet` is the workhorse: a normalized (sorted, disjoint,
coalesced) set of intervals with union/intersection/subtraction, used by the
VFS for dirty-extent tracking, by the PFS consistency engines for visibility
maps, and by the pattern analyzer for coverage computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open byte range ``[start, stop)``.

    Zero-length intervals (``start == stop``) are permitted as values but
    are dropped when normalized into an :class:`IntervalSet`.
    """

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError(f"interval stop {self.stop} < start {self.start}")

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def empty(self) -> bool:
        return self.stop <= self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two half-open ranges share at least one byte."""
        if self.empty or other.empty:
            return False
        return self.start < other.stop and other.start < self.stop

    def touches(self, other: "Interval") -> bool:
        """True when the ranges overlap or are exactly adjacent."""
        return self.start <= other.stop and other.start <= self.stop

    def intersection(self, other: "Interval") -> "Interval":
        """The shared byte range; empty interval at ``max(starts)`` if none."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if hi < lo:
            return Interval(lo, lo)
        return Interval(lo, hi)

    def contains(self, offset: int) -> bool:
        return self.start <= offset < self.stop

    def shift(self, delta: int) -> "Interval":
        return Interval(self.start + delta, self.stop + delta)


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Coalesce intervals into a sorted list of disjoint non-empty ranges.

    Adjacent ranges (``a.stop == b.start``) are merged.  Runs in
    ``O(n log n)``.
    """
    items = sorted(i for i in intervals if not i.empty)
    out: list[Interval] = []
    for iv in items:
        if out and iv.start <= out[-1].stop:
            if iv.stop > out[-1].stop:
                out[-1] = Interval(out[-1].start, iv.stop)
        else:
            out.append(iv)
    return out


class IntervalSet:
    """A normalized set of disjoint, sorted, non-empty half-open intervals.

    Internally stored as two parallel numpy int64 arrays (``starts``,
    ``stops``) so membership and intersection queries vectorize; the HPC
    guides' "use contiguous arrays, avoid Python loops" idiom.
    """

    __slots__ = ("_starts", "_stops")

    def __init__(self, intervals: Iterable[Interval] = ()):  # noqa: D107
        merged = merge_intervals(intervals)
        self._starts = np.fromiter((i.start for i in merged), dtype=np.int64,
                                   count=len(merged))
        self._stops = np.fromiter((i.stop for i in merged), dtype=np.int64,
                                  count=len(merged))

    # -- basic protocol --------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        for a, b in zip(self._starts.tolist(), self._stops.tolist()):
            yield Interval(a, b)

    def __len__(self) -> int:
        return int(self._starts.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (self._starts.shape == other._starts.shape
                and bool(np.all(self._starts == other._starts))
                and bool(np.all(self._stops == other._stops)))

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._stops.tobytes()))

    def __repr__(self) -> str:
        body = ", ".join(f"[{a},{b})" for a, b in
                         zip(self._starts.tolist(), self._stops.tolist()))
        return f"IntervalSet({body})"

    # -- queries ---------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total number of bytes covered."""
        return int(np.sum(self._stops - self._starts)) if len(self) else 0

    def contains(self, offset: int) -> bool:
        """True when ``offset`` lies inside some interval."""
        if not len(self):
            return False
        idx = int(np.searchsorted(self._starts, offset, side="right")) - 1
        return idx >= 0 and offset < self._stops[idx]

    def covers(self, iv: Interval) -> bool:
        """True when a single member interval contains all of ``iv``."""
        if iv.empty:
            return True
        if not len(self):
            return False
        idx = int(np.searchsorted(self._starts, iv.start, side="right")) - 1
        return idx >= 0 and iv.stop <= self._stops[idx]

    def overlapping(self, iv: Interval) -> list[Interval]:
        """Member intervals clipped to their intersection with ``iv``."""
        if iv.empty or not len(self):
            return []
        lo = int(np.searchsorted(self._stops, iv.start, side="right"))
        hi = int(np.searchsorted(self._starts, iv.stop, side="left"))
        out = []
        for a, b in zip(self._starts[lo:hi].tolist(), self._stops[lo:hi].tolist()):
            clipped = Interval(max(a, iv.start), min(b, iv.stop))
            if not clipped.empty:
                out.append(clipped)
        return out

    # -- set algebra -------------------------------------------------------------

    def union(self, other: "IntervalSet | Interval") -> "IntervalSet":
        other_ivs = [other] if isinstance(other, Interval) else list(other)
        return IntervalSet(list(self) + other_ivs)

    def add(self, iv: Interval) -> "IntervalSet":
        return self.union(iv)

    def intersection(self, other: "IntervalSet | Interval") -> "IntervalSet":
        if isinstance(other, Interval):
            return IntervalSet(self.overlapping(other))
        out: list[Interval] = []
        for iv in other:
            out.extend(self.overlapping(iv))
        return IntervalSet(out)

    def subtract(self, other: "IntervalSet | Interval") -> "IntervalSet":
        """Bytes in ``self`` but not in ``other``."""
        if isinstance(other, Interval):
            other = IntervalSet([other])
        out: list[Interval] = []
        cut_starts = other._starts
        cut_stops = other._stops
        for iv in self:
            pieces = [iv]
            lo = int(np.searchsorted(cut_stops, iv.start, side="right"))
            hi = int(np.searchsorted(cut_starts, iv.stop, side="left"))
            for a, b in zip(cut_starts[lo:hi].tolist(), cut_stops[lo:hi].tolist()):
                nxt: list[Interval] = []
                for p in pieces:
                    if b <= p.start or a >= p.stop:
                        nxt.append(p)
                        continue
                    if a > p.start:
                        nxt.append(Interval(p.start, a))
                    if b < p.stop:
                        nxt.append(Interval(b, p.stop))
                pieces = nxt
            out.extend(pieces)
        return IntervalSet(out)

    def gaps(self, within: Interval) -> "IntervalSet":
        """Bytes of ``within`` not covered by this set."""
        return IntervalSet([within]).subtract(self)
