"""Simulated MPI communicator.

Design notes
------------
* All shared state lives in one :class:`MPIWorld` per run.  The engine
  guarantees only one rank executes at a time, so plain dicts/deques are
  safe without locks.
* Timing: a matched receive synchronizes the receiver's clock to the
  sender's completion time plus network latency; collectives synchronize
  every participant to ``max(entry times) + cost * ceil(log2 p)``.  The
  costs are this module's constants (:data:`NET_LATENCY`,
  :data:`NET_BYTE_COST`, :data:`BARRIER_COST`).  The rank that completes
  a collective moves every member's clock to the exit time before it
  wakes them: they are all parked, so no ready key changes, and each
  woken member resumes at the key its next step really has.
* A payload is captured when it is sent or contributed: a deep copy when
  it is mutable, the object itself when it is immutable (``None``,
  numbers, strings, bytes, and tuples of those).  A rank never receives
  a mutable object that another rank also holds: each member of a
  collective takes its own copy of anything mutable in its result.
* Every matched operation is reported to the tracer (when attached) with a
  ``match_key`` shared by all events of the match, from which
  :mod:`repro.core.happens_before` rebuilds the partial order:
  send → recv, collective entries → exits (with root-direction edges for
  rooted collectives).
"""

from __future__ import annotations

import copy
import math
import operator
from collections import deque
from enum import Enum
from functools import reduce
from typing import Any, Callable

import numpy as np

from repro.errors import CollectiveMismatchError, MPIError
from repro.sim.engine import RankContext, SimEngine
from repro.tracer.recorder import Recorder

#: virtual seconds charged per message, on each side
NET_LATENCY = 2e-6
#: virtual seconds charged per payload byte, on each side
NET_BYTE_COST = 1e-9
#: virtual seconds a collective costs per tree level
BARRIER_COST = 5e-6


class ReduceOp(Enum):
    """Reduction operators supported by reduce/allreduce."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PROD = "prod"

    def apply(self, values: list[Any]) -> Any:
        """Fold ``values`` left to right (rank order) with this operator."""
        return reduce(_FOLDS[self._value_], values)


def _max(a: Any, b: Any) -> Any:
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _min(a: Any, b: Any) -> Any:
    return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


#: a ReduceOp's value -> its binary operator; keyed by value, not by
#: member, because each enum-member lookup costs about 100 ns
_FOLDS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add, "max": _max, "min": _min, "prod": operator.mul}


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


#: payload types that are immutable all the way down (a tuple is, when
#: its items are); nothing else is safe to share between ranks
_ATOMIC = frozenset({type(None), bool, int, float, complex, str, bytes})


def _shareable(value: Any) -> bool:
    """True when ``value`` cannot change: several ranks may hold it."""
    kind = type(value)
    if kind in _ATOMIC:
        return True
    if kind is not tuple:
        return False
    for item in value:
        if type(item) not in _ATOMIC and not _shareable(item):
            return False
    return True


def _isolated(value: Any) -> Any:
    """``value`` itself when it is immutable, else a deep copy of it."""
    return value if _shareable(value) else copy.deepcopy(value)


#: collectives whose result reads every member's payload; the others
#: (barrier, bcast, scatter) read the root's at most
_PER_RANK = frozenset({"gather", "allgather", "reduce", "allreduce",
                       "alltoall"})


class _CollectiveSlot:
    """The shared state of one collective while its members pass it.

    Arrivals are listed in order, with the latest arrival time kept as
    they come.  The payloads a result needs are kept, each copied on
    entry only when it is mutable.  Completing the slot computes a
    reduction (or an allgather's ``combine``) once, and each member takes
    its own result on the way out (:meth:`result`), copying only what is
    mutable in it.
    """

    __slots__ = ("kind", "root", "op", "combine", "index", "size",
                 "wait_key", "match_key", "members", "latest", "payloads",
                 "complete", "value", "mutable", "departed")

    def __init__(self, index: int, kind: str, root: int | None,
                 op: ReduceOp | None, size: int,
                 combine: Callable[[list[Any]], Any] | None = None):
        self.kind = kind
        self.root = root
        self.op = op
        self.combine = combine
        self.index = index
        self.size = size
        self.wait_key = _collective_key(index)
        self.match_key = ("coll", index, kind)
        #: ranks in arrival order
        self.members: list[int] = []
        #: the latest arrival's true time
        self.latest = -math.inf
        #: rank -> its (isolated) payload for the kinds in _PER_RANK;
        #: the others keep the root's only
        self.payloads: list[Any] = ([None] * size if kind in _PER_RANK
                                    else [None])
        self.complete = False
        #: a reduction's value, computed once by :meth:`finish`
        self.value: Any = None
        #: ranks whose contribution is mutable (a deep copy is kept)
        self.mutable: list[int] = []
        self.departed = 0

    def arrive(self, rank: int, true_time: float, payload: Any) -> None:
        self.members.append(rank)
        if true_time > self.latest:
            self.latest = true_time
        if self.kind in _PER_RANK:
            if not _shareable(payload):
                payload = copy.deepcopy(payload)
                self.mutable.append(rank)
            self.payloads[rank] = payload
        elif rank == self.root:
            self.payloads[0] = _isolated(payload)

    def is_complete(self) -> bool:
        return self.complete

    def waiting(self, rank: int) -> str:
        """Why ``rank`` waits here, as it stood when the rank arrived."""
        arrived = self.members.index(rank) + 1
        return f"{self.kind}#{self.index} ({arrived}/{self.size} arrived)"

    def finish(self) -> None:
        """Compute what the members' results are made from, once every
        rank arrived."""
        kind, payloads = self.kind, self.payloads
        if kind == "scatter":
            chunks = payloads[0]
            if chunks is None or len(chunks) != self.size:
                raise MPIError(
                    f"scatter root must supply a list of {self.size} items")
        elif kind in ("reduce", "allreduce"):
            self.value = self.op.apply(payloads)
        elif self.combine is not None:
            self.value = self.combine(payloads)

    def result(self, rank: int) -> Any:
        """``rank``'s result, its own copy of anything mutable in it."""
        kind = self.kind
        if kind == "barrier":
            return None
        if kind == "bcast":
            return _isolated(self.payloads[0])
        if kind == "allreduce":
            return _isolated(self.value)
        if kind == "allgather":
            if self.combine is not None:
                return self.value  # immutable: every member shares it
            gathered = list(self.payloads)
            for r in self.mutable:
                gathered[r] = copy.deepcopy(gathered[r])
            return gathered
        if kind == "scatter":
            return _isolated(self.payloads[0][rank])
        if kind == "alltoall":
            return [_isolated(chunks[rank]) for chunks in self.payloads]
        if rank != self.root:  # gather, reduce
            return None
        return self.value if kind == "reduce" else self.payloads


def _op_name(op: ReduceOp | None) -> str | None:
    return None if op is None else op.value


def collective_depth(size: int) -> int:
    """Tree depth charged per collective (``ceil(log2 p)``, at least 1)."""
    return max(1, math.ceil(math.log2(max(2, size))))


def _mailbox_key(src: int, dest: int, tag: Any) -> tuple:
    """Engine wait key of a receive by ``dest`` from ``src``."""
    return ("p2p", src, dest, tag)


def _collective_key(index: int) -> tuple:
    """Engine wait key of the members of collective ``index``."""
    return ("coll", index)


class MPIWorld:
    """Shared mailbox + collective-matching state for one run.

    Posting a message and completing a collective notify the engine
    under the wait key the receiver or the members parked on, so only
    they are re-checked.
    """

    def __init__(self, engine: SimEngine, recorder: Recorder | None = None):
        self.engine = engine
        self.recorder = recorder
        self.nranks = engine.nranks
        self._mailboxes: dict[tuple[int, int, int], deque[_Message]] = {}
        self._p2p_seq: dict[tuple[int, int, int], int] = {}
        #: collective index -> its slot while members pass it
        self.slots: dict[int, _CollectiveSlot] = {}
        self._clocks = [engine.clock(r) for r in range(self.nranks)]
        #: what a collective adds to its latest arrival's time
        self._exit_cost = BARRIER_COST * collective_depth(self.nranks)

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

    def mismatch(self, slot: _CollectiveSlot, rank: int, kind: str,
                 root: int | None, op: ReduceOp | None
                 ) -> CollectiveMismatchError:
        """The error of ``rank`` entering ``slot`` as another collective
        than its first member did."""
        return CollectiveMismatchError(
            f"collective #{slot.index}: rank {rank} entered "
            f"{kind}(root={root}, op={_op_name(op)}) but rank "
            f"{slot.members[0]} entered {slot.kind}(root={slot.root}, "
            f"op={_op_name(slot.op)})")

    def complete_collective(self, slot: _CollectiveSlot) -> None:
        """Finish a fully-arrived collective and wake its members.

        Every member's clock, the caller's included, moves to the exit
        time here.  The other members are parked, not in the ready heap,
        so no ready key changes; each one wakes at ``(exit time, rank)``,
        the key of its next step, and runs on without a second switch.
        """
        exit_true = slot.latest + self._exit_cost
        slot.finish()
        clocks = self._clocks
        for rank in slot.members:
            clocks[rank].sync_to(exit_true)
        slot.complete = True
        self.engine.notify(slot.wait_key)


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

    def allgather(self, payload: Any,
                  combine: Callable[[list[Any]], Any] | None = None) -> Any:
        gathered = self.bcast(self.gather(payload, root=0), root=0)
        return gathered if combine is None else combine(gathered)

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
        self._clock = ctx.clock
        self._engine = world.engine

    # -- helpers ---------------------------------------------------------------

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise MPIError(f"{what} rank {r} out of range [0, {self.size})")

    # -- point to point ------------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Buffered send: completes locally once the message is queued."""
        self._check_rank(dest, "destination")
        if dest == self.rank:
            raise MPIError("send to self would deadlock a blocking recv")
        world, clock, rank = self.world, self._clock, self.rank
        t0 = clock.local_time
        clock.advance(NET_LATENCY + _sizeof(payload) * NET_BYTE_COST)
        key = world.next_p2p_key(rank, dest, tag)
        world.post_send(rank, dest, tag, _Message(
            _isolated(payload), clock.true_time, key))
        recorder = world.recorder
        if recorder is not None:
            recorder.record_mpi(rank, "send", key, "sender", t0,
                                clock.local_time)
        self._engine.checkpoint(rank)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the next message from ``source``.

        The wait parks on the mailbox key ``("p2p", source, rank, tag)``,
        which :meth:`MPIWorld.post_send` notifies, so messages on one
        channel arrive in send order.
        """
        self._check_rank(source, "source")
        world, clock, rank = self.world, self._clock, self.rank
        t0 = clock.local_time
        box = world.mailbox(source, rank, tag)
        self._engine.wait_until(
            rank, lambda: bool(box), f"recv(source={source}, tag={tag})",
            key=_mailbox_key(source, rank, tag))
        msg = box.popleft()
        clock.sync_to(msg.send_done_true)
        clock.advance(NET_LATENCY + _sizeof(msg.payload) * NET_BYTE_COST)
        recorder = world.recorder
        if recorder is not None:
            recorder.record_mpi(rank, "recv", msg.match_key, "receiver", t0,
                                clock.local_time)
        self._engine.checkpoint(rank)
        return msg.payload

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
                    role: str, op: ReduceOp | None = None,
                    combine: Callable[[list[Any]], Any] | None = None,
                    ) -> Any:
        """Enter the next collective, wait for every member, and leave.

        The first member to arrive creates the slot, every later one must
        enter the same kind, root and operator, and the last to leave
        frees the slot.
        """
        index = self._coll_seq
        self._coll_seq = index + 1
        world, clock, rank = self.world, self._clock, self.rank
        t0 = clock.local_time
        slots = world.slots
        slot = slots.get(index)
        if slot is None:
            slot = slots[index] = _CollectiveSlot(
                index, kind, root, op, self.size, combine)
        elif slot.kind != kind or slot.root != root or slot.op is not op:
            raise world.mismatch(slot, rank, kind, root, op)
        slot.arrive(rank, clock.true_time, payload)
        if len(slot.members) == self.size:
            world.complete_collective(slot)
        else:
            self._engine.wait_until(rank, slot.is_complete, slot.waiting,
                                    slot.wait_key)
        result = slot.result(rank)
        slot.departed += 1
        if slot.departed == self.size:
            del slots[index]
        recorder = world.recorder
        if recorder is not None:
            recorder.record_mpi(rank, kind, slot.match_key, role, t0,
                                clock.local_time)
        self._engine.checkpoint(rank)
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

    def allgather(self, payload: Any,
                  combine: Callable[[list[Any]], Any] | None = None) -> Any:
        """Every member's payload, in rank order.

        With ``combine``, every member gets ``combine(payloads)`` instead,
        computed once per collective and shared, so it must return an
        immutable value.  The trace records the same allgather.
        """
        return self._collective("allgather", payload, None, "member",
                                combine=combine)

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
