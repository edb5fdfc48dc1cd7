"""Happens-before recovery and race-freedom validation (paper §5.2).

The paper validates its timestamp-ordering methodology on FLASH by
matching sends to receives and collective invocations, deriving the
execution order imposed by communication, and checking that every pair
of conflicting I/O operations is ordered by it.  This module implements
that check for any trace.

Each MPI event has an *entry* and an *exit*, because synchronization
constraints relate entries to exits ("a send starts before the receive
completes, and a barrier starts at all nodes before it completes at any
node" — §5.2).  The partial order is generated by:

* program order: ``exit(e_i) -> entry(e_{i+1})`` per rank, and
  ``entry(e) -> exit(e)``;
* point-to-point: ``entry(send) -> exit(recv)``;
* rooted collectives: ``entry(root) -> exit(member)`` for bcast/scatter,
  ``entry(member) -> exit(root)`` for gather/reduce;
* fully synchronizing collectives (barrier, allreduce, allgather,
  alltoall): ``entry(member) -> hub -> exit(member)`` for all members.

:class:`HappensBefore` reads the trace's event columns and never builds
that graph.  A *world sync* is a fully synchronizing match with exactly
one event on every rank; world syncs cut the run into *epochs*.  An
entry before a world sync on one rank precedes every exit after it on
every rank, and a later epoch never precedes an earlier one, so a
cross-rank query that spans epochs is one comparison.  Only the *sparse*
edges (point-to-point, rooted collectives, and partial collectives kept
as a hub) order two events of one epoch: such a query is a forward
search over that epoch's sparse edges, memoized per source event.
Memory is O(events + sparse edges + answered sources).

Matched events that contradict program order (a receive waiting on a
send that itself waits on the receive) form a cycle and raise
:class:`AnalysisError`.  In epoch form a cycle is one of three things:
world syncs seen in different orders on different ranks, a sparse edge
into an earlier epoch, or a cycle through sparse edges and program
order inside one epoch, which one Kahn pass over the sparse nodes finds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from repro.core.records import AccessPairs, AccessRecord
from repro.errors import AnalysisError, RaceConditionError
from repro.tracer.columnar import (
    EVENT_COLUMNS,
    ColumnarTrace,
    build_events,
    interned,
)
from repro.tracer.events import MPIEvent
from repro.tracer.trace import Trace

#: match categories, by the kind of the match's first event in program
#: order; any other kind synchronizes fully
_P2P, _ROOT_TO_ALL, _ALL_TO_ROOT, _SYNC = range(4)
_CATEGORY = {"send": _P2P, "recv": _P2P,
             "bcast": _ROOT_TO_ALL, "scatter": _ROOT_TO_ALL,
             "gather": _ALL_TO_ROOT, "reduce": _ALL_TO_ROOT}


def _heads(counts: np.ndarray) -> np.ndarray:
    """Start offset of each group in a grouped array of ``counts``."""
    return np.cumsum(counts) - counts


def _match_pairs(mid: np.ndarray, srcs: np.ndarray, dsts: np.ndarray,
                 nmatches: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (source, target) pair of slots in one match; ``srcs`` and
    ``dsts`` are slots grouped by their match id ``mid``."""
    fan = np.bincount(mid[dsts], minlength=nmatches)
    reps = fan[mid[srcs]]
    within = np.arange(reps.sum()) - np.repeat(_heads(reps), reps)
    return (np.repeat(srcs, reps),
            dsts[np.repeat(_heads(fan)[mid[srcs]], reps) + within])


class HappensBefore:
    """Epoch index over a run's communication partial order.

    Events are addressed by *slot*, their position in ``(rank, tstart,
    eid)`` order; node ``2 * slot`` is an event's entry and
    ``2 * slot + 1`` its exit, so node numbers follow program order
    within a rank.  The index keeps the trace's event columns, not the
    trace, so the trace's analysis memo can hold it.
    """

    def __init__(self, trace: Trace):
        ct = trace.columnar
        c = ct.columns
        self._events = ColumnarTrace(
            ct.nranks, columns={name: c[name] for name, _ in EVENT_COLUMNS},
            kinds=ct.kinds, roles=ct.roles, match_keys=ct.match_keys)
        self.nranks = nranks = trace.nranks
        order = self._order = np.lexsort(
            (c["ev_eid"], c["ev_tstart"], c["ev_rank"]))
        rank = c["ev_rank"][order]
        start, end = c["ev_tstart"][order], c["ev_tend"][order]
        same_rank = rank[1:] == rank[:-1]
        overlap = np.flatnonzero(same_rank & (start[1:] < end[:-1]))
        if overlap.size:
            s = int(overlap[0])
            eid = c["ev_eid"][order]
            raise AnalysisError(
                f"MPI events overlap on rank {int(rank[s])}: eid "
                f"{int(eid[s + 1])} starts before eid {int(eid[s])} ends")
        bounds = np.searchsorted(rank, np.arange(nranks + 1))

        # matches, grouped: slots of one match stay in program order
        keys, mid = interned(ct.match_keys)
        mid = mid[order]
        grouped = np.argsort(mid, kind="stable")
        sizes = np.bincount(mid, minlength=len(keys))
        kinds = np.array([_CATEGORY.get(k, _SYNC) for k in ct.kinds],
                         dtype=np.int8)
        category = kinds[c["ev_kind_id"][order][grouped[_heads(sizes)]]]
        grank, gmid = rank[grouped], mid[grouped]
        repeat = (grank[1:] == grank[:-1]) & (gmid[1:] == gmid[:-1])
        shared = np.bincount(gmid[1:][repeat], minlength=len(keys)) > 0
        world = (category == _SYNC) & (sizes == nranks) & ~shared

        # epochs: world syncs before an entry, and up to an exit
        is_world = world[mid]
        cum = np.concatenate(([0], np.cumsum(is_world)))
        ep_in = cum[:-1] - cum[bounds[rank]]
        ep_out = ep_in + is_world
        nworld = int(world.sum())
        if nworld:
            cuts = np.flatnonzero(is_world)
            grid = mid[cuts].reshape(nranks, nworld)
            swapped = np.argwhere(grid != grid[0])
            if swapped.size:
                r, k = swapped[0]
                raise self._cycle_error(cuts[r * nworld + k])

        # sparse point edges entry(u) -> exit(v), per match
        role_ids = c["ev_role_id"][order]

        def role(name: str) -> np.ndarray:
            return np.array([x == name for x in ct.roles],
                            dtype=bool)[role_ids]

        cat, root = category[mid], role("root")
        is_src = np.where(cat == _P2P, role("sender"),
                          np.where(cat == _ROOT_TO_ALL, root,
                                   cat == _ALL_TO_ROOT))
        is_dst = np.where(cat == _P2P, role("receiver"),
                          np.where(cat == _ALL_TO_ROOT, root,
                                   cat == _ROOT_TO_ALL))
        u, v = _match_pairs(mid, grouped[is_src[grouped]],
                            grouped[is_dst[grouped]], len(keys))
        backward = np.flatnonzero(ep_in[u] > ep_out[v])
        if backward.size:
            raise self._cycle_error(u[backward[0]])
        keep = (ep_in[u] == ep_out[v]) & ((rank[u] != rank[v]) | (u > v))
        u, v = u[keep], v[keep]

        # partial collectives: entry(member) -> hub -> exit(member)
        is_hub = (category == _SYNC) & ~world & (sizes > 1)
        members = grouped[is_hub[gmid]]
        first_epoch = np.full(len(keys), np.iinfo(np.int64).max)
        np.minimum.at(first_epoch, mid[members], ep_in[members])
        late = np.flatnonzero(ep_in[members] > first_epoch[mid[members]])
        if late.size:
            raise self._cycle_error(members[late[0]])
        hub = (np.cumsum(is_hub) - 1)[mid[members]]
        self._hubs = [m.tolist() for m in np.split(
            members, np.flatnonzero(np.diff(hub)) + 1)] if hub.size else []
        self._check_acyclic(rank, u, v, members, hub)

        edge_src = np.concatenate((u, members))
        by_src = np.argsort(edge_src, kind="stable")
        self._edge_src = edge_src[by_src].tolist()
        self._edge_dst = np.concatenate((v, ~hub))[by_src].tolist()
        self._bounds = bounds.tolist()
        self._rank = rank.tolist()
        self._ep_in, self._ep_out = ep_in.tolist(), ep_out.tolist()
        self._starts, self._ends = start.tolist(), end.tolist()
        self._reached: dict[int, dict[int, int]] = {}

    # -- construction ---------------------------------------------------------

    def _check_acyclic(self, rank: np.ndarray, u: np.ndarray,
                       v: np.ndarray, members: np.ndarray,
                       hub: np.ndarray) -> None:
        """One Kahn pass over the sparse nodes: the sparse edges plus one
        program-order link between consecutive sparse nodes of a rank."""
        if not (u.size or members.size):
            return
        hub_node = 2 * rank.size + hub
        marks = np.unique(np.concatenate(
            (2 * u, 2 * v + 1, 2 * members, 2 * members + 1)))
        link = rank[marks[1:] // 2] == rank[marks[:-1] // 2]
        tails = np.concatenate(
            (2 * u, 2 * members, hub_node, marks[:-1][link]))
        heads = np.concatenate(
            (2 * v + 1, hub_node, 2 * members + 1, marks[1:][link]))
        nodes, index = np.unique(np.concatenate((tails, heads)),
                                 return_inverse=True)
        t, h = index[:tails.size], index[tails.size:]
        indegree = np.bincount(h, minlength=nodes.size).tolist()
        succ = h[np.argsort(t, kind="stable")].tolist()
        first = np.concatenate(
            ([0], np.cumsum(np.bincount(t, minlength=nodes.size)))).tolist()
        ready = [i for i, d in enumerate(indegree) if d == 0]
        for x in ready:
            for y in succ[first[x]:first[x + 1]]:
                indegree[y] -= 1
                if indegree[y] == 0:
                    ready.append(y)
        if len(ready) == nodes.size:
            return
        # every node left has a predecessor left: walking back from one
        # must come round to a node on a cycle
        pred = {}
        for a, b in zip(t.tolist(), h.tolist()):
            if indegree[a] and indegree[b]:
                pred.setdefault(b, a)
        x = next(iter(pred))
        path: dict[int, int] = {}
        while x not in path:
            path[x] = len(path)
            x = pred[x]
        cycle = list(path)[path[x]:]
        node = next(int(nodes[i]) for i in cycle
                    if nodes[i] < 2 * rank.size)
        raise self._cycle_error(node // 2)

    def _cycle_error(self, slot: int) -> AnalysisError:
        """One-line diagnosis naming the MPI event at ``slot``."""
        c, row = self._events.columns, self._order[slot]
        return AnalysisError(
            f"MPI events contradict program order: happens-before "
            f"cycle through rank {int(c['ev_rank'][row])} "
            f"{self._events.kinds[c['ev_kind_id'][row]]} "
            f"(eid {int(c['ev_eid'][row])})")

    # -- queries -----------------------------------------------------------------

    @cached_property
    def events_by_rank(self) -> list[list[MPIEvent]]:
        """Each rank's MPI events in program order."""
        events = build_events(self._events, self._order)
        return [events[lo:hi]
                for lo, hi in zip(self._bounds, self._bounds[1:])]

    @cached_property
    def _slot_of(self) -> dict[int, int]:
        eids = self._events.columns["ev_eid"][self._order]
        return dict(zip(eids.tolist(), range(eids.size)))

    def _reach(self, slot: int) -> dict[int, int]:
        """The first node per rank that entry(``slot``) reaches through
        its epoch's sparse edges: a forward search, memoized."""
        reach = self._reached.get(slot)
        if reach is not None:
            return reach
        epoch, ranks, ep_in = self._ep_in[slot], self._rank, self._ep_in
        src, dst, nedges = self._edge_src, self._edge_dst, \
            len(self._edge_src)
        reach = {ranks[slot]: 2 * slot}
        # rank -> first edge already followed: a rank reached earlier
        # only needs the edges before that one
        followed: dict[int, int] = {}
        hubs_seen: set[int] = set()
        work = [ranks[slot]]
        while work:
            r = work.pop()
            e = bisect_left(src, (reach[r] + 1) // 2)
            stop = followed.get(r)
            followed[r] = e
            while (e != stop and e < nedges and ranks[src[e]] == r
                   and ep_in[src[e]] == epoch):
                d = dst[e]
                e += 1
                if d >= 0:
                    targets = (d,)
                elif d in hubs_seen:
                    continue
                else:
                    hubs_seen.add(d)
                    targets = self._hubs[~d]
                for t in targets:
                    if 2 * t + 1 < reach.get(ranks[t], 2 * t + 2):
                        reach[ranks[t]] = 2 * t + 1
                        work.append(ranks[t])
        self._reached[slot] = reach
        return reach

    def _ordered(self, i: int, j: int) -> bool:
        """Does entry(slot ``i``) precede exit(slot ``j``)?"""
        ri, rj = self._rank[i], self._rank[j]
        if ri == rj:
            return i <= j
        ki, kj = self._ep_in[i], self._ep_out[j]
        if ki != kj:
            return ki < kj
        return self._reach(i).get(rj, 2 * j + 2) <= 2 * j + 1

    def event_ordered(self, ea: MPIEvent, eb: MPIEvent) -> bool:
        """entry(ea) precedes exit(eb) — the relation access ordering needs."""
        return ea.eid == eb.eid or self._ordered(self._slot_of[ea.eid],
                                                 self._slot_of[eb.eid])

    def access_ordered(self, a: AccessRecord, b: AccessRecord) -> bool:
        """Does access ``a`` happen before access ``b``?

        Same rank: program order (local timestamps are exact).  Different
        ranks: there must be a communication chain from an event after
        ``a`` on ``a``'s rank to an event before ``b`` on ``b``'s rank.
        """
        return self.times_ordered(a.rank, a.tstart, a.tend, b.rank,
                                  b.tstart)

    def times_ordered(self, rank_a: int, tstart_a: float, tend_a: float,
                      rank_b: int, tstart_b: float) -> bool:
        """:meth:`access_ordered` for accesses given by rank and times:
        ``a`` on ``rank_a`` over ``[tstart_a, tend_a]``, ``b`` on
        ``rank_b`` from ``tstart_b``."""
        if rank_a == rank_b:
            return tstart_a <= tstart_b
        bounds = self._bounds
        i = bisect_left(self._starts, tend_a,
                        bounds[rank_a], bounds[rank_a + 1])
        j = bisect_right(self._ends, tstart_b,
                         bounds[rank_b], bounds[rank_b + 1]) - 1
        if i == bounds[rank_a + 1] or j < bounds[rank_b]:
            return False
        return self._ordered(i, j)


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


def validate_race_freedom(
        order: HappensBefore,
        pairs: "AccessPairs | Iterable[tuple[AccessRecord, AccessRecord]]",
        *, raise_on_race: bool = False) -> RaceReport:
    """Check §5.2's two assumptions on conflicting access pairs.

    ``order`` is the run's :class:`HappensBefore`.  ``pairs`` are e.g.
    the (first, second) pairs of detected conflicts, given as record
    pairs or as :class:`~repro.core.records.AccessPairs` columns (then
    records are built only for the pairs the report lists, as given).
    For each pair we verify the program's synchronization orders the two
    accesses, and that the order matches timestamp order.  Each pair is
    checked with its earlier-starting access first, so a pair listed
    later access first (the object model lists its exemplars in session
    order) is no clock-skew disagreement.
    """
    if not isinstance(pairs, AccessPairs):
        pairs = AccessPairs.of(pairs)
    ordered = order.times_ordered
    unsynchronized, disagreements = [], []
    for k, (ra, rb, sa, sb, ea, eb) in enumerate(zip(
            *pairs.rank.tolist(), *pairs.tstart.tolist(),
            *pairs.tend.tolist())):
        if sb < sa:
            ra, rb, sa, sb, ea, eb = rb, ra, sb, sa, eb, ea
        forward = ordered(ra, sa, ea, rb, sb)
        backward = ordered(rb, sb, eb, ra, sa)
        if not forward and not backward:
            unsynchronized.append(k)
        elif backward and not forward:
            disagreements.append(k)
    report = RaceReport(checked_pairs=pairs.rank.shape[1],
                        unsynchronized=pairs.records(unsynchronized),
                        timestamp_disagreements=pairs.records(disagreements))
    if raise_on_race and not report.race_free:
        a, b = report.unsynchronized[0]
        raise RaceConditionError(
            f"unsynchronized conflicting accesses on {a.path!r}: "
            f"rank {a.rank} [{a.offset},{a.stop}) at t={a.tstart:.6f} vs "
            f"rank {b.rank} [{b.offset},{b.stop}) at t={b.tstart:.6f}")
    return report
