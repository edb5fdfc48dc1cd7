"""Tests for the simulated MPI communicator."""

import numpy as np
import pytest

from repro.errors import CollectiveMismatchError, DeadlockError, MPIError
from repro.mpi.comm import ReduceOp


class TestPointToPoint:
    def test_send_recv_roundtrip(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, {"x": 7})
                return None
            return ctx.comm.recv(0)

        results = h.run(program, align=False)
        assert results[1] == {"x": 7}

    def test_message_order_preserved_per_channel(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    ctx.comm.send(1, i)
                return None
            return [ctx.comm.recv(0) for _ in range(5)]

        assert h.run(program, align=False)[1] == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, "a", tag=1)
                ctx.comm.send(1, "b", tag=2)
                return None
            second = ctx.comm.recv(0, tag=2)
            first = ctx.comm.recv(0, tag=1)
            return (first, second)

        assert h.run(program, align=False)[1] == ("a", "b")

    def test_payload_isolated_from_sender_mutation(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                data = [1, 2, 3]
                ctx.comm.send(1, data)
                data.append(99)  # must not reach the receiver
                return None
            return ctx.comm.recv(0)

        assert h.run(program, align=False)[1] == [1, 2, 3]

    def test_recv_synchronizes_clock(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.clock.advance(5e-3)  # sender is slow
                ctx.comm.send(1, "late")
                return None
            before = ctx.clock.true_time
            ctx.comm.recv(0)
            return (before, ctx.clock.true_time)

        before, after = h.run(program, align=False)[1]
        assert after >= 5e-3 > before

    def test_send_to_self_rejected(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                with pytest.raises(MPIError):
                    ctx.comm.send(0, 1)

        h.run(program, align=False)

    def test_bad_rank_rejected(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            with pytest.raises(MPIError):
                ctx.comm.send(5, 1)

        h.run(program, align=False)


class TestCollectives:
    def test_barrier_aligns_clocks(self, harness):
        h = harness(nranks=4)

        def program(ctx):
            ctx.clock.advance(ctx.rank * 1e-3)
            ctx.comm.barrier()
            return ctx.clock.true_time

        times = h.run(program, align=False)
        assert len(set(round(t, 12) for t in times)) == 1
        assert times[0] >= 3e-3

    def test_bcast(self, harness):
        h = harness(nranks=4)

        def program(ctx):
            value = {"data": 42} if ctx.rank == 2 else None
            return ctx.comm.bcast(value, root=2)

        assert h.run(program, align=False) == [{"data": 42}] * 4

    def test_scatter_gather(self, harness):
        h = harness(nranks=3)

        def program(ctx):
            chunk = ctx.comm.scatter(
                [10, 20, 30] if ctx.rank == 0 else None, root=0)
            return ctx.comm.gather(chunk * 2, root=0)

        results = h.run(program, align=False)
        assert results[0] == [20, 40, 60]
        assert results[1] is None and results[2] is None

    def test_allgather(self, harness):
        h = harness(nranks=3)
        results = h.run(lambda ctx: ctx.comm.allgather(ctx.rank ** 2),
                        align=False)
        assert results == [[0, 1, 4]] * 3

    def test_allgather_members_hold_their_own_copies(self, harness):
        """Rank 0 changes a mutable element of its result; rank 1, which
        took its result first, must not see the change."""
        h = harness(nranks=2)

        def program(ctx):
            gathered = ctx.comm.allgather([ctx.rank])
            if ctx.rank == 0:
                gathered[1].append("changed by rank 0")
            ctx.comm.barrier()
            return gathered

        results = h.run(program, align=False)
        assert results[0] == [[0], [1, "changed by rank 0"]]
        assert results[1] == [[0], [1]]

    def test_scatter_and_alltoall_members_hold_their_own_copies(self, harness):
        """One list object sent to both ranks reaches each as its own."""
        h = harness(nranks=2)

        def program(ctx):
            shared: list[str] = []
            chunk = ctx.comm.scatter(
                [shared, shared] if ctx.rank == 0 else None)
            row = ctx.comm.alltoall([shared, shared])
            if ctx.rank == 0:
                chunk.append("scatter")
                row[1].append("alltoall")
            ctx.comm.barrier()
            return chunk, row

        results = h.run(program, align=False)
        assert results[0] == (["scatter"], [[], ["alltoall"]])
        assert results[1] == ([], [[], []])

    def test_immutable_contributions_are_shared_not_copied(self, harness):
        h = harness(nranks=3)
        part = (7, b"bytes", ("nested", 1.5, None))

        def program(ctx):
            return ctx.comm.allgather(part), ctx.comm.bcast(part)

        for gathered, value in h.run(program, align=False):
            assert all(item is part for item in gathered)
            assert value is part

    def test_allreduce_ops(self, harness):
        h = harness(nranks=4)

        def program(ctx):
            return (ctx.comm.allreduce(ctx.rank + 1, ReduceOp.SUM),
                    ctx.comm.allreduce(ctx.rank + 1, ReduceOp.MAX),
                    ctx.comm.allreduce(ctx.rank + 1, ReduceOp.MIN),
                    ctx.comm.allreduce(ctx.rank + 1, ReduceOp.PROD))

        for result in h.run(program, align=False):
            assert result == (10, 4, 1, 24)

    def test_allreduce_numpy_arrays(self, harness):
        h = harness(nranks=3)

        def program(ctx):
            return ctx.comm.allreduce(np.full(4, ctx.rank), ReduceOp.MAX)

        for arr in h.run(program, align=False):
            assert np.array_equal(arr, np.full(4, 2))

    def test_reduce_root_only(self, harness):
        h = harness(nranks=3)
        results = h.run(lambda ctx: ctx.comm.reduce(1, root=1),
                        align=False)
        assert results == [None, 3, None]

    def test_alltoall(self, harness):
        h = harness(nranks=3)

        def program(ctx):
            payload = [f"{ctx.rank}->{d}" for d in range(3)]
            return ctx.comm.alltoall(payload)

        results = h.run(program, align=False)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_length_rejected(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            with pytest.raises(MPIError):
                ctx.comm.alltoall([1])

        h.run(program, align=False)

    @pytest.mark.parametrize("first, second, rank0_sig, rank1_sig", [
        (lambda c: c.barrier(), lambda c: c.allreduce(1),
         "barrier(root=None, op=None)", "allreduce(root=None, op=sum)"),
        (lambda c: c.bcast(1, root=0), lambda c: c.bcast(1, root=1),
         "bcast(root=0, op=None)", "bcast(root=1, op=None)"),
        (lambda c: c.allreduce(1, ReduceOp.SUM),
         lambda c: c.allreduce(1, ReduceOp.MAX),
         "allreduce(root=None, op=sum)", "allreduce(root=None, op=max)"),
    ], ids=["kind", "root", "op"])
    def test_collective_mismatch_detected(self, harness, first, second,
                                          rank0_sig, rank1_sig):
        h = harness(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                first(ctx.comm)
            else:
                ctx.clock.advance(1e-3)  # rank 0 is already in the slot
                second(ctx.comm)

        with pytest.raises(CollectiveMismatchError) as exc:
            h.run(program, align=False)
        assert str(exc.value) == (
            f"collective #0: rank 1 entered {rank1_sig} "
            f"but rank 0 entered {rank0_sig}")

    def test_deadlock_names_each_wait_as_it_began(self, harness):
        """A collective member's reason counts the arrivals up to its
        own, though the text is only formatted once the run deadlocks."""
        h = harness(nranks=4)

        def program(ctx):
            if ctx.rank == 3:
                ctx.comm.recv(0, tag=5)  # nobody sends
            ctx.comm.barrier()

        with pytest.raises(DeadlockError) as exc:
            h.run(program, align=False)
        assert exc.value.states == {
            0: "barrier#0 (1/4 arrived)", 1: "barrier#0 (2/4 arrived)",
            2: "barrier#0 (3/4 arrived)", 3: "recv(source=0, tag=5)"}

    def test_events_recorded_with_shared_match_keys(self, harness):
        h = harness(nranks=2)

        def program(ctx):
            ctx.comm.barrier()
            if ctx.rank == 0:
                ctx.comm.send(1, 5)
            else:
                ctx.comm.recv(0)

        h.run(program, align=False)
        trace = h.trace()
        keys = {}
        for ev in trace.mpi_events:
            keys.setdefault(ev.match_key, []).append(ev)
        barrier_matches = [v for k, v in keys.items() if k[2] == "barrier"]
        p2p_matches = [v for k, v in keys.items() if k[0] == "p2p"]
        assert len(barrier_matches) == 1 and len(barrier_matches[0]) == 2
        assert len(p2p_matches) == 1 and len(p2p_matches[0]) == 2
        roles = {e.role for e in p2p_matches[0]}
        assert roles == {"sender", "receiver"}
