"""Simulated MPI communicator.

Design notes
------------
* All shared state lives in one :class:`MPIWorld` per run.  The engine
  guarantees only one rank executes at a time, so plain dicts/deques are
  safe without locks.
* Timing: a matched receive synchronizes the receiver's clock to the
  sender's completion time plus network latency; collectives synchronize
  every participant to ``max(entry times) + cost * ceil(log2 p)``.
* Every matched operation is reported to the tracer (when attached) with a
  ``match_key`` shared by all events of the match, from which
  :mod:`repro.core.happens_before` rebuilds the partial order:
  send → recv, collective entries → exits (with root-direction edges for
  rooted collectives).
"""

from __future__ import annotations

import copy
import math
from collections import deque
from enum import Enum
from typing import Any, Callable

import numpy as np

from repro.errors import CollectiveMismatchError, MPIError
from repro.sim.engine import RankContext, SimEngine
from repro.tracer.recorder import Recorder

ANY_SOURCE = -1


class ReduceOp(Enum):
    """Reduction operators supported by reduce/allreduce."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PROD = "prod"

    def apply(self, values: list[Any]) -> Any:
        if self is ReduceOp.SUM:
            return _fold(values, lambda a, b: a + b)
        if self is ReduceOp.MAX:
            return _fold(values, lambda a, b: np.maximum(a, b)
                         if _is_array(a) else max(a, b))
        if self is ReduceOp.MIN:
            return _fold(values, lambda a, b: np.minimum(a, b)
                         if _is_array(a) else min(a, b))
        return _fold(values, lambda a, b: a * b)


def _is_array(x: Any) -> bool:
    return isinstance(x, np.ndarray)


def _fold(values: list[Any], fn: Callable[[Any, Any], Any]) -> Any:
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


def _sizeof(obj: Any) -> int:
    """Rough wire size of a payload for network-cost accounting."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_sizeof(x) for x in obj)
    if isinstance(obj, dict):
        # Manifest-style messages: charge keys and values, not a flat 64.
        return sum(_sizeof(k) + _sizeof(v) for k, v in obj.items())
    return 64


class _Message:
    __slots__ = ("payload", "send_done_true", "match_key")

    def __init__(self, payload: Any, send_done_true: float, match_key: tuple):
        self.payload = payload
        self.send_done_true = send_done_true
        self.match_key = match_key


class _CollectiveSlot:
    __slots__ = ("kind", "root", "op", "arrivals", "payloads", "complete",
                 "exit_true", "results")

    def __init__(self, kind: str, root: int | None, op: str | None = None):
        self.kind = kind
        self.root = root
        self.op = op
        self.arrivals: dict[int, float] = {}
        self.payloads: dict[int, Any] = {}
        self.complete = False
        self.exit_true = 0.0
        self.results: dict[int, Any] = {}

    def finish(self, size: int) -> None:
        """Compute every rank's result once all ``size`` ranks arrived."""
        kind, payloads = self.kind, self.payloads
        if kind == "barrier":
            self.results = {r: None for r in range(size)}
        elif kind == "bcast":
            value = payloads[self.root]
            self.results = {r: copy.deepcopy(value) for r in range(size)}
        elif kind == "scatter":
            chunks = payloads[self.root]
            if chunks is None or len(chunks) != size:
                raise MPIError(
                    f"scatter root must supply a list of {size} items")
            self.results = {r: chunks[r] for r in range(size)}
        elif kind == "gather":
            gathered = [payloads[r] for r in range(size)]
            self.results = {r: (gathered if r == self.root else None)
                            for r in range(size)}
        elif kind == "allgather":
            gathered = [payloads[r] for r in range(size)]
            self.results = {r: list(gathered) for r in range(size)}
        elif kind == "reduce":
            value = ReduceOp(self.op).apply(
                [payloads[r] for r in range(size)])
            self.results = {r: (value if r == self.root else None)
                            for r in range(size)}
        elif kind == "allreduce":
            value = ReduceOp(self.op).apply(
                [payloads[r] for r in range(size)])
            self.results = {r: copy.deepcopy(value) for r in range(size)}
        elif kind == "alltoall":
            self.results = {
                r: [payloads[s][r] for s in range(size)]
                for r in range(size)}
        else:  # pragma: no cover - new kinds must be added here
            raise MPIError(f"unknown collective kind {kind!r}")


def collective_depth(size: int) -> int:
    """Tree depth charged per collective (``ceil(log2 p)``, at least 1)."""
    return max(1, math.ceil(math.log2(max(2, size))))


def _mailbox_key(src: int, dest: int, tag: Any) -> tuple:
    """Engine wait key of a specific-source receive."""
    return ("p2p", src, dest, tag)


def _collective_key(index: int) -> tuple:
    """Engine wait key of the members of collective ``index``."""
    return ("coll", index)


class MPIWorld:
    """Shared mailbox + collective-matching state for one run.

    Posting a message and completing a collective notify the engine
    under the wait key the receiver or the members parked on, so only
    they are re-checked.  ``blocked_in`` tracks *why* each rank is
    blocked inside the MPI layer (``("recv", src, tag)``,
    ``("anyrecv", tag)`` or ``("coll", index)``); the deterministic
    ANY_SOURCE matching rule below reads it.
    """

    def __init__(self, engine: SimEngine, recorder: Recorder | None = None):
        self.engine = engine
        self.recorder = recorder
        self.nranks = engine.nranks
        self._mailboxes: dict[tuple[int, int, int], deque[_Message]] = {}
        self._p2p_seq: dict[tuple[int, int, int], int] = {}
        self._slots: dict[int, _CollectiveSlot] = {}
        self.blocked_in: dict[int, tuple] = {}

    def mailbox(self, src: int, dest: int, tag: int) -> deque[_Message]:
        return self._mailboxes.setdefault((src, dest, tag), deque())

    def next_p2p_key(self, src: int, dest: int, tag: int) -> tuple:
        seq = self._p2p_seq.get((src, dest, tag), 0)
        self._p2p_seq[(src, dest, tag)] = seq + 1
        return ("p2p", src, dest, tag, seq)

    def post_send(self, src: int, dest: int, tag: int, msg: _Message) -> None:
        """Queue a just-sent message and wake a receiver parked on it."""
        self.mailbox(src, dest, tag).append(msg)
        self.engine.notify(_mailbox_key(src, dest, tag))

    def slot(self, index: int, kind: str, root: int | None,
             op: str | None = None) -> _CollectiveSlot:
        s = self._slots.get(index)
        if s is None:
            s = _CollectiveSlot(kind, root, op)
            self._slots[index] = s
        else:
            if s.kind != kind or s.root != root or s.op != op:
                raise CollectiveMismatchError(
                    f"collective #{index}: rank entered {kind}(root={root}) "
                    f"but others entered {s.kind}(root={s.root})")
        return s

    def complete_collective(self, index: int, slot: _CollectiveSlot) -> None:
        """Finish a fully-arrived collective and wake its members."""
        cfg = self.engine.config
        slot.exit_true = (max(slot.arrivals.values())
                          + cfg.barrier_cost * collective_depth(self.nranks))
        slot.finish(self.nranks)
        slot.complete = True
        self.engine.notify(_collective_key(index))

    def release_slot(self, index: int, rank: int) -> None:
        s = self._slots.get(index)
        if s is None:
            return
        s.results.pop(rank, None)
        if s.complete and not s.results:
            del self._slots[index]

    # -- deterministic ANY_SOURCE matching --------------------------------------

    def anysource_candidates(self, dest: int, tag: int) -> list[
            tuple[float, int]]:
        """Pending ``(send completion time, src)`` heads for an ANY recv."""
        out = []
        for s in range(self.nranks):
            if s == dest:
                continue
            box = self._mailboxes.get((s, dest, tag))
            if box:
                out.append((box[0].send_done_true, s))
        return out

    def anysource_ready(self, dest: int, tag: int) -> bool:
        """May ``dest``'s ANY_SOURCE recv match *now*?

        True only when a candidate exists and no rank can still post a
        send that would complete before the best candidate — which makes
        the chosen match a function of program behaviour alone, not of
        scheduling.
        """
        cands = self.anysource_candidates(dest, tag)
        if not cands:
            return False
        return self.anysource_safe(dest, best_t=min(cands)[0])

    def anysource_safe(self, dest: int, best_t: float) -> bool:
        """No rank except ``dest`` can complete a send before ``best_t``.

        Sound because a future send from rank ``q`` completes strictly
        after ``q``'s current lower bound (net_latency > 0):

        * done ranks and ranks parked in a world collective cannot send
          at all before ``dest`` itself proceeds;
        * a rank blocked on a *matchable* recv resumes no earlier than
          the head message's completion time;
        * a rank blocked on an *empty* mailbox can only be woken by some
          other sender — and if every potential waker is itself at or
          past ``best_t``, the wake (and any send after it) lands past
          ``best_t`` too.
        """
        from repro.sim.engine import RANK_DONE, RANK_BLOCKED

        for q in range(self.nranks):
            if q == dest:
                continue
            status, t = self.engine.rank_status(q)
            if status == RANK_DONE:
                continue
            blocked = self.blocked_in.get(q)
            if blocked is not None and blocked[0] == "coll":
                # A world collective needs dest too; q can't move first.
                continue
            parked_empty = False
            if blocked is not None and blocked[0] == "recv":
                box = self._mailboxes.get((blocked[1], q, blocked[2]))
                if box:
                    t = max(t, box[0].send_done_true)
                else:
                    parked_empty = True
            elif blocked is not None and blocked[0] == "anyrecv":
                cands = self.anysource_candidates(q, blocked[1])
                if cands:
                    t = max(t, min(cands)[0])
                else:
                    parked_empty = True
            elif status != RANK_BLOCKED:
                pass  # ready/running: bound is its own clock
            if t >= best_t:
                continue
            if not parked_empty:
                return False
            # parked on an empty box below best_t: harmless unless some
            # *other* rank below best_t could wake it — and that rank
            # would already have returned False above.
        return True

    def take_anysource(self, dest: int, tag: int) -> _Message:
        cands = self.anysource_candidates(dest, tag)
        _, src = min(cands)
        return self._mailboxes[(src, dest, tag)].popleft()


class Request:
    """Handle for a nonblocking operation; ``wait()`` completes it."""

    def __init__(self, completer: Callable[[], Any]):
        self._completer = completer
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._completer()
            self._done = True
        return self._value

    def test(self) -> tuple[bool, Any]:
        """Nonblocking completion check (always completes in this simulator)."""
        return True, self.wait()


class SubComm:
    """A sub-communicator produced by :meth:`Communicator.split`.

    Collectives are implemented over the parent's point-to-point layer
    (leader-based fan-in/fan-out), so they compose freely with the
    parent's own collectives and the happens-before log stays exact.
    Point-to-point tags are namespaced by the member tuple, so sibling
    sub-communicators never cross-deliver.
    """

    def __init__(self, parent: "Communicator", members: list[int]):
        if parent.rank not in members:
            raise MPIError("split color does not include the caller")
        self.parent = parent
        self.members = list(members)
        self.rank = self.members.index(parent.rank)
        self.size = len(self.members)

    def _tag(self, tag: int) -> tuple:
        return ("sub", tuple(self.members), tag)

    def _check(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise MPIError(f"{what} rank {r} out of range "
                           f"[0, {self.size})")

    # -- point to point ------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        self._check(dest, "destination")
        self.parent.send(self.members[dest], payload,
                         tag=self._tag(tag))

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check(source, "source")
        return self.parent.recv(self.members[source],
                                tag=self._tag(tag))

    # -- collectives (leader fan-in/fan-out over p2p) ---------------------------

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        self._check(root, "root")
        if self.size == 1:
            return [payload] if self.rank == root else None
        if self.rank == root:
            parts: list[Any] = [None] * self.size
            parts[root] = payload
            for r in range(self.size):
                if r != root:
                    parts[r] = self.recv(r, tag=-10)
            return parts
        self.send(root, payload, tag=-10)
        return None

    def bcast(self, payload: Any, root: int = 0) -> Any:
        self._check(root, "root")
        if self.size == 1:
            return payload
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(r, payload, tag=-11)
            return payload
        return self.recv(root, tag=-11)

    def allgather(self, payload: Any) -> list[Any]:
        gathered = self.gather(payload, root=0)
        return self.bcast(gathered, root=0)

    def allreduce(self, payload: Any,
                  op: ReduceOp = ReduceOp.SUM) -> Any:
        values = self.allgather(payload)
        return op.apply(values)

    def reduce(self, payload: Any, op: ReduceOp = ReduceOp.SUM,
               root: int = 0) -> Any:
        values = self.gather(payload, root=root)
        return op.apply(values) if values is not None else None

    def scatter(self, payload: list[Any] | None, root: int = 0) -> Any:
        self._check(root, "root")
        if self.rank == root:
            if payload is None or len(payload) != self.size:
                raise MPIError(
                    f"scatter root must supply {self.size} items")
            for r in range(self.size):
                if r != root:
                    self.send(r, payload[r], tag=-12)
            return payload[root]
        return self.recv(root, tag=-12)

    def barrier(self) -> None:
        self.gather(None, root=0)
        self.bcast(None, root=0)


class Communicator:
    """Per-rank MPI handle bound to a :class:`MPIWorld`."""

    def __init__(self, world: MPIWorld, ctx: RankContext):
        self.world = world
        self.ctx = ctx
        self.rank = ctx.rank
        self.size = ctx.nranks
        self._coll_seq = 0

    # -- helpers ---------------------------------------------------------------

    @property
    def _cfg(self):
        return self.world.engine.config

    def _charge(self, dt: float) -> None:
        self.ctx.clock.advance(dt)

    def _checkpoint(self) -> None:
        self.world.engine.checkpoint(self.rank)

    def _record(self, kind: str, match_key: tuple, role: str,
                tstart: float, tend: float) -> None:
        if self.world.recorder is not None:
            self.world.recorder.record_mpi(
                self.rank, kind, match_key, role, tstart, tend)

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise MPIError(f"{what} rank {r} out of range [0, {self.size})")

    # -- point to point ------------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Buffered send: completes locally once the message is queued."""
        self._check_rank(dest, "destination")
        if dest == self.rank:
            raise MPIError("send to self would deadlock a blocking recv")
        t0 = self.ctx.clock.local_time
        nbytes = _sizeof(payload)
        self._charge(self._cfg.net_latency + nbytes * self._cfg.net_byte_cost)
        key = self.world.next_p2p_key(self.rank, dest, tag)
        msg = _Message(copy.deepcopy(payload), self.ctx.clock.true_time, key)
        self.world.post_send(self.rank, dest, tag, msg)
        self._record("send", key, "sender", t0, self.ctx.clock.local_time)
        self._checkpoint()

    def isend(self, dest: int, payload: Any, tag: int = 0) -> Request:
        self.send(dest, payload, tag)
        return Request(lambda: None)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from a specific source (or ``ANY_SOURCE``).

        ANY_SOURCE matches deterministically: the recv completes only
        once no rank can still post an earlier-completing send (see
        :meth:`MPIWorld.anysource_ready`), then takes the candidate with
        the smallest ``(completion time, src)``.  The chosen sender is
        therefore identical however the ranks are scheduled.  The wait
        has no engine key: it reads every rank's state, so it is
        re-checked at every dispatch.
        """
        world = self.world
        if source == ANY_SOURCE:
            t0 = self.ctx.clock.local_time
            world.blocked_in[self.rank] = ("anyrecv", tag)
            try:
                world.engine.wait_until(
                    self.rank,
                    lambda: world.anysource_ready(self.rank, tag),
                    f"recv(source=ANY_SOURCE, tag={tag})")
            finally:
                world.blocked_in.pop(self.rank, None)
            msg = world.take_anysource(self.rank, tag)
        else:
            self._check_rank(source, "source")
            t0 = self.ctx.clock.local_time
            box = world.mailbox(source, self.rank, tag)
            world.blocked_in[self.rank] = ("recv", source, tag)
            try:
                world.engine.wait_until(
                    self.rank, lambda: bool(box),
                    f"recv(source={source}, tag={tag})",
                    key=_mailbox_key(source, self.rank, tag))
            finally:
                world.blocked_in.pop(self.rank, None)
            msg = box.popleft()
        self.ctx.clock.sync_to(msg.send_done_true)
        self._charge(self._cfg.net_latency
                     + _sizeof(msg.payload) * self._cfg.net_byte_cost)
        self._record("recv", msg.match_key, "receiver",
                     t0, self.ctx.clock.local_time)
        self._checkpoint()
        return msg.payload

    def irecv(self, source: int, tag: int = 0) -> Request:
        return Request(lambda: self.recv(source, tag))

    def sendrecv(self, dest: int, payload: Any, source: int,
                 tag: int = 0) -> Any:
        self.send(dest, payload, tag)
        return self.recv(source, tag)

    # -- communicator management ---------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "SubComm":
        """``MPI_Comm_split``: ranks sharing a color form a sub-communicator.

        Collective over this communicator.  ``key`` orders ranks within
        the new communicator (default: old rank order).  The returned
        :class:`SubComm` supports the collective/point-to-point surface
        scoped to its members.
        """
        me = (int(color), self.rank if key is None else int(key),
              self.rank)
        everyone: list[tuple[int, int, int]] = self.allgather(me)
        members = sorted((k, r) for c, k, r in everyone
                         if c == int(color))
        ranks = [r for _, r in members]
        return SubComm(self, ranks)

    # -- collectives ------------------------------------------------------------------

    def _collective(self, kind: str, payload: Any, root: int | None,
                    role: str, op: ReduceOp | None = None) -> Any:
        index = self._coll_seq
        self._coll_seq += 1
        t0 = self.ctx.clock.local_time
        op_name = None if op is None else op.value
        slot = self.world.slot(index, kind, root, op_name)
        slot.arrivals[self.rank] = self.ctx.clock.true_time
        slot.payloads[self.rank] = copy.deepcopy(payload)
        if len(slot.arrivals) == self.size:
            self.world.complete_collective(index, slot)
        else:
            self.world.blocked_in[self.rank] = ("coll", index)
            try:
                self.world.engine.wait_until(
                    self.rank, lambda: slot.complete,
                    f"{kind}#{index} "
                    f"({len(slot.arrivals)}/{self.size} arrived)",
                    key=_collective_key(index))
            finally:
                self.world.blocked_in.pop(self.rank, None)
        self.ctx.clock.sync_to(slot.exit_true)
        result = slot.results.get(self.rank)
        self.world.release_slot(index, self.rank)
        self._record(kind, ("coll", index, kind), role,
                     t0, self.ctx.clock.local_time)
        self._checkpoint()
        return result

    def barrier(self) -> None:
        self._collective("barrier", None, None, "member")

    def bcast(self, payload: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        role = "root" if self.rank == root else "member"
        return self._collective("bcast", payload if self.rank == root
                                else None, root, role)

    def scatter(self, payload: list[Any] | None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        role = "root" if self.rank == root else "member"
        return self._collective("scatter", payload if self.rank == root
                                else None, root, role)

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root, "root")
        role = "root" if self.rank == root else "member"
        return self._collective("gather", payload, root, role)

    def allgather(self, payload: Any) -> list[Any]:
        return self._collective("allgather", payload, None, "member")

    def reduce(self, payload: Any, op: ReduceOp = ReduceOp.SUM,
               root: int = 0) -> Any:
        self._check_rank(root, "root")
        role = "root" if self.rank == root else "member"
        return self._collective("reduce", payload, root, role, op=op)

    def allreduce(self, payload: Any, op: ReduceOp = ReduceOp.SUM) -> Any:
        return self._collective("allreduce", payload, None, "member", op=op)

    def alltoall(self, payload: list[Any]) -> list[Any]:
        if len(payload) != self.size:
            raise MPIError(
                f"alltoall needs a list of {self.size} items, "
                f"got {len(payload)}")
        return self._collective("alltoall", payload, None, "member")
