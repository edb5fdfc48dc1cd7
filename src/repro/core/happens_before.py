"""Happens-before recovery and race-freedom validation (paper §5.2).

The paper validates its timestamp-ordering methodology on FLASH by
matching sends to receives and collective invocations, deriving the
execution order imposed by communication, and checking that every pair
of conflicting I/O operations is ordered by it.  This module implements
that check for any trace.

Each MPI event is split into an *entry* and an *exit* node, because
synchronization constraints relate entries to exits ("a send starts
before the receive completes, and a barrier starts at all nodes before
it completes at any node" — §5.2):

* program order: ``exit(e_i) -> entry(e_{i+1})`` per rank, and
  ``entry(e) -> exit(e)``;
* point-to-point: ``entry(send) -> exit(recv)``;
* rooted collectives: ``entry(root) -> exit(member)`` for bcast/scatter,
  ``entry(member) -> exit(root)`` for gather/reduce;
* fully synchronizing collectives (barrier, allreduce, allgather,
  alltoall): ``entry(member) -> hub -> exit(member)`` for all members.

Exact reachability is answered with vector clocks computed in one
topological sweep, so per-pair queries are O(1).  Matched events that
contradict program order (a receive waiting on a send that itself waits
on the receive) form a cycle and raise :class:`AnalysisError`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

import numpy as np

from repro.core.records import AccessRecord
from repro.errors import AnalysisError, RaceConditionError
from repro.tracer.events import MPIEvent
from repro.tracer.trace import Trace

#: collectives where the root's entry precedes everyone's exit
_ROOT_TO_ALL = {"bcast", "scatter"}
#: collectives where everyone's entry precedes the root's exit
_ALL_TO_ROOT = {"gather", "reduce"}

_IN, _OUT = 0, 1


class HappensBefore:
    """Vector-clock index over a run's communication partial order."""

    def __init__(self, trace: Trace):
        self.nranks = trace.nranks
        self.events_by_rank: list[list[MPIEvent]] = [
            [] for _ in range(trace.nranks)]
        for ev in sorted(trace.mpi_events,
                         key=lambda e: (e.rank, e.tstart, e.eid)):
            self.events_by_rank[ev.rank].append(ev)
        self._starts: list[list[float]] = [
            [e.tstart for e in evs] for evs in self.events_by_rank]
        self._ends: list[list[float]] = [
            [e.tend for e in evs] for evs in self.events_by_rank]
        # node position along its rank's program order: entry=2i, exit=2i+1
        self._pos: dict[tuple, int] = {}
        self._rank_of: dict[tuple, int] = {}
        for rank, evs in enumerate(self.events_by_rank):
            for i, ev in enumerate(evs):
                self._pos[(ev.eid, _IN)] = 2 * i
                self._pos[(ev.eid, _OUT)] = 2 * i + 1
                self._rank_of[(ev.eid, _IN)] = rank
                self._rank_of[(ev.eid, _OUT)] = rank
        #: node -> its predecessors in the partial order
        self.graph = self._build_graph()
        self._clocks = self._compute_vector_clocks()

    # -- construction ---------------------------------------------------------

    def _build_graph(self) -> dict[tuple, list[tuple]]:
        preds: dict[tuple, list[tuple]] = {}

        def edge(u: tuple, v: tuple) -> None:
            preds.setdefault(v, []).append(u)

        for evs in self.events_by_rank:
            for i, ev in enumerate(evs):
                edge((ev.eid, _IN), (ev.eid, _OUT))
                if i > 0:
                    edge((evs[i - 1].eid, _OUT), (ev.eid, _IN))
        by_match: dict[tuple, list[MPIEvent]] = {}
        for evs in self.events_by_rank:
            for ev in evs:
                by_match.setdefault(ev.match_key, []).append(ev)
        for key, match in by_match.items():
            kind = match[0].kind
            if kind in ("send", "recv"):
                for s in (e for e in match if e.role == "sender"):
                    for r in (e for e in match if e.role == "receiver"):
                        edge((s.eid, _IN), (r.eid, _OUT))
            elif kind in _ROOT_TO_ALL:
                for root in (e for e in match if e.role == "root"):
                    for e in match:
                        edge((root.eid, _IN), (e.eid, _OUT))
            elif kind in _ALL_TO_ROOT:
                for root in (e for e in match if e.role == "root"):
                    for e in match:
                        edge((e.eid, _IN), (root.eid, _OUT))
            else:  # fully synchronizing
                hub = ("hub", key)
                for e in match:
                    edge((e.eid, _IN), hub)
                    edge(hub, (e.eid, _OUT))
        return preds

    def _compute_vector_clocks(self) -> dict[tuple, np.ndarray]:
        try:
            order = list(TopologicalSorter(self.graph).static_order())
        except CycleError as exc:
            raise self._cycle_error(exc.args[1]) from None
        clocks: dict[tuple, np.ndarray] = {}
        for node in order:
            vc = np.zeros(self.nranks, dtype=np.int64)
            for pred in self.graph.get(node, ()):
                np.maximum(vc, clocks[pred], out=vc)
            rank = self._rank_of.get(node)
            if rank is not None:
                vc[rank] = max(vc[rank], self._pos[node] + 1)
            clocks[node] = vc
        return clocks

    def _cycle_error(self, cycle: list[tuple]) -> AnalysisError:
        """One-line diagnosis naming an MPI event on ``cycle``."""
        eid = next(node[0] for node in cycle if node[0] != "hub")
        ev = next(e for evs in self.events_by_rank for e in evs
                  if e.eid == eid)
        return AnalysisError(
            f"MPI events contradict program order: happens-before "
            f"cycle through rank {ev.rank} {ev.kind} (eid {ev.eid})")

    # -- queries -----------------------------------------------------------------

    def node_ordered(self, x: tuple, y: tuple) -> bool:
        """Does graph node ``x`` precede node ``y`` in the partial order?"""
        rank = self._rank_of[x]
        return bool(self._clocks[y][rank] >= self._pos[x] + 1) and x != y

    def event_ordered(self, ea: MPIEvent, eb: MPIEvent) -> bool:
        """entry(ea) precedes exit(eb) — the relation access ordering needs."""
        return self.node_ordered((ea.eid, _IN), (eb.eid, _OUT)) \
            or (ea.eid == eb.eid)

    def _first_event_at_or_after(self, rank: int,
                                 t: float) -> MPIEvent | None:
        i = bisect_left(self._starts[rank], t)
        evs = self.events_by_rank[rank]
        return evs[i] if i < len(evs) else None

    def _last_event_ending_by(self, rank: int, t: float) -> MPIEvent | None:
        i = bisect_right(self._ends[rank], t) - 1
        evs = self.events_by_rank[rank]
        return evs[i] if i >= 0 else None

    def access_ordered(self, a: AccessRecord, b: AccessRecord) -> bool:
        """Does access ``a`` happen before access ``b``?

        Same rank: program order (local timestamps are exact).  Different
        ranks: there must be a communication chain from an event after
        ``a`` on ``a``'s rank to an event before ``b`` on ``b``'s rank.
        """
        if a.rank == b.rank:
            return a.tstart <= b.tstart
        ea = self._first_event_at_or_after(a.rank, a.tend)
        eb = self._last_event_ending_by(b.rank, b.tstart)
        if ea is None or eb is None:
            return False
        return self.event_ordered(ea, eb)


@dataclass
class RaceReport:
    """Outcome of the §5.2 validation over a set of conflicting pairs."""

    checked_pairs: int = 0
    unsynchronized: list[tuple[AccessRecord, AccessRecord]] = field(
        default_factory=list)
    timestamp_disagreements: list[tuple[AccessRecord, AccessRecord]] = field(
        default_factory=list)

    @property
    def race_free(self) -> bool:
        return not self.unsynchronized

    @property
    def timestamps_trustworthy(self) -> bool:
        return not self.timestamp_disagreements


def validate_race_freedom(trace: Trace,
                          pairs: list[tuple[AccessRecord, AccessRecord]],
                          *, raise_on_race: bool = False) -> RaceReport:
    """Check §5.2's two assumptions on conflicting access pairs.

    ``pairs`` should be timestamp-ordered (first.tstart <= second.tstart),
    e.g. the (first, second) pairs of detected conflicts.  For each pair
    we verify the program's synchronization orders the two accesses, and
    that the order matches timestamp order.
    """
    hb = HappensBefore(trace)
    report = RaceReport()
    for a, b in pairs:
        report.checked_pairs += 1
        forward = hb.access_ordered(a, b)
        backward = hb.access_ordered(b, a)
        if not forward and not backward:
            report.unsynchronized.append((a, b))
        elif backward and not forward:
            report.timestamp_disagreements.append((a, b))
    if raise_on_race and not report.race_free:
        a, b = report.unsynchronized[0]
        raise RaceConditionError(
            f"unsynchronized conflicting accesses on {a.path!r}: "
            f"rank {a.rank} [{a.offset},{a.stop}) at t={a.tstart:.6f} vs "
            f"rank {b.rank} [{b.offset},{b.stop}) at t={b.tstart:.6f}")
    return report
