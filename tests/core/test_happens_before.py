"""Tests for happens-before recovery and race-freedom validation (§5.2)."""

from repro.core.happens_before import HappensBefore, validate_race_freedom
from repro.core.records import AccessRecord
from repro.errors import AnalysisError, RaceConditionError
from repro.tracer.recorder import Recorder
from repro.tracer.trace import Trace

import pytest


def access(rank, t, path="/f", off=0, n=4, write=True, rid=None):
    return AccessRecord(rid=rid if rid is not None else int(t * 100),
                        rank=rank, path=path, offset=off, stop=off + n,
                        is_write=write, tstart=t, tend=t + 0.01)


class EventBuilder:
    def __init__(self, nranks=2):
        self.rec = Recorder(nranks)
        self.nranks = nranks

    def send(self, rank, dest, t, key_extra=0):
        self.rec.record_mpi(rank, "send", ("p2p", rank, dest, 0,
                                           key_extra), "sender", t, t + 0.1)
        return self

    def recv(self, rank, source, t, key_extra=0):
        self.rec.record_mpi(rank, "recv", ("p2p", source, rank, 0,
                                           key_extra), "receiver",
                            t, t + 0.1)
        return self

    def barrier(self, times, index=0):
        for rank, t in enumerate(times):
            self.rec.record_mpi(rank, "barrier", ("coll", index, "barrier"),
                                "member", t, max(times) + 0.1)
        return self

    def bcast(self, times, root=0, index=0):
        for rank, t in enumerate(times):
            role = "root" if rank == root else "member"
            self.rec.record_mpi(rank, "bcast", ("coll", index, "bcast"),
                                role, t, max(times) + 0.1)
        return self

    def trace(self):
        return self.rec.build_trace()


class TestEventOrdering:
    def test_send_recv_orders(self):
        trace = EventBuilder().send(0, 1, 1.0).recv(1, 0, 2.0).trace()
        hb = HappensBefore(trace)
        s = hb.events_by_rank[0][0]
        r = hb.events_by_rank[1][0]
        assert hb.event_ordered(s, r)
        assert not hb.event_ordered(r, s)

    def test_unrelated_events_unordered(self):
        b = EventBuilder(nranks=3)
        b.send(0, 1, 1.0).recv(1, 0, 2.0)
        b.rec.record_mpi(2, "send", ("p2p", 2, 1, 1, 0), "sender", 1.5, 1.6)
        hb = HappensBefore(b.trace())
        s0 = hb.events_by_rank[0][0]
        s2 = hb.events_by_rank[2][0]
        assert not hb.event_ordered(s0, s2)
        assert not hb.event_ordered(s2, s0)

    def test_barrier_orders_across(self):
        trace = EventBuilder().barrier([1.0, 1.2]).trace()
        hb = HappensBefore(trace)
        a = hb.events_by_rank[0][0]
        b = hb.events_by_rank[1][0]
        # entry of either precedes exit of the other
        assert hb.event_ordered(a, b) and hb.event_ordered(b, a)

    def test_transitivity_through_chain(self):
        b = EventBuilder(nranks=3)
        b.send(0, 1, 1.0).recv(1, 0, 2.0, key_extra=0)
        b.rec.record_mpi(1, "send", ("p2p", 1, 2, 0, 0), "sender", 3.0, 3.1)
        b.rec.record_mpi(2, "recv", ("p2p", 1, 2, 0, 0), "receiver",
                         4.0, 4.1)
        hb = HappensBefore(b.trace())
        first = hb.events_by_rank[0][0]
        last = hb.events_by_rank[2][0]
        assert hb.event_ordered(first, last)
        assert not hb.event_ordered(last, first)

    def test_bcast_root_directed(self):
        trace = EventBuilder().bcast([1.0, 1.2], root=0).trace()
        hb = HappensBefore(trace)
        root = hb.events_by_rank[0][0]
        member = hb.events_by_rank[1][0]
        assert hb.event_ordered(root, member)
        # a member's entry does NOT precede the root's exit in a bcast
        assert not hb.event_ordered(member, root)


class TestDegenerateCommunication:
    """Malformed or unusual event sets the recovery must survive:
    unmatched halves, self-messages, and collectives with one member."""

    def test_unmatched_send_orders_nothing(self):
        # the receive never made it into the trace (e.g. truncated run)
        trace = EventBuilder().send(0, 1, 1.0).trace()
        hb = HappensBefore(trace)
        assert len(hb.events_by_rank[0]) == 1
        assert not hb.access_ordered(access(0, 2.0),
                                     access(1, 3.0, write=False))

    def test_unmatched_recv_orders_nothing(self):
        trace = EventBuilder().recv(1, 0, 2.0).trace()
        hb = HappensBefore(trace)
        assert not hb.access_ordered(access(0, 1.0),
                                     access(1, 3.0, write=False))

    def test_self_message_respects_program_order(self):
        # a rank sending to itself: the match edge entry(send) ->
        # exit(recv) must agree with program order, not create a cycle
        b = EventBuilder(nranks=2)
        b.rec.record_mpi(0, "send", ("p2p", 0, 0, 0, 0), "sender",
                         1.0, 1.1)
        b.rec.record_mpi(0, "recv", ("p2p", 0, 0, 0, 0), "receiver",
                         2.0, 2.1)
        hb = HappensBefore(b.trace())
        s, r = hb.events_by_rank[0]
        assert hb.event_ordered(s, r)
        assert not hb.event_ordered(r, s)
        # and same-rank accesses still order by local timestamps
        assert hb.access_ordered(access(0, 0.5), access(0, 3.0))

    def test_rooted_collective_with_only_the_root(self):
        # every non-root member was filtered from the trace; the bcast
        # degenerates to a no-op but must not break graph construction
        b = EventBuilder(nranks=2)
        b.rec.record_mpi(0, "bcast", ("coll", 0, "bcast"), "root",
                         1.0, 1.2)
        hb = HappensBefore(b.trace())
        root = hb.events_by_rank[0][0]
        assert hb.event_ordered(root, root)  # reflexive by eid
        assert not hb.access_ordered(access(0, 2.0),
                                     access(1, 3.0, write=False))

    def test_all_to_root_collective_with_only_the_root(self):
        b = EventBuilder(nranks=2)
        b.rec.record_mpi(1, "reduce", ("coll", 0, "reduce"), "root",
                         1.0, 1.2)
        hb = HappensBefore(b.trace())
        assert len(hb.events_by_rank[1]) == 1
        assert not hb.access_ordered(access(0, 0.5),
                                     access(1, 2.0, write=False))

    def test_collective_missing_its_root(self):
        # only non-root members present: no ordering edges at all
        b = EventBuilder(nranks=2)
        b.rec.record_mpi(0, "bcast", ("coll", 0, "bcast"), "member",
                         1.0, 1.2)
        b.rec.record_mpi(1, "bcast", ("coll", 0, "bcast"), "member",
                         1.0, 1.2)
        hb = HappensBefore(b.trace())
        a = hb.events_by_rank[0][0]
        c = hb.events_by_rank[1][0]
        assert not hb.event_ordered(a, c)
        assert not hb.event_ordered(c, a)

    def test_single_member_barrier_is_harmless(self):
        b = EventBuilder(nranks=2)
        b.rec.record_mpi(0, "barrier", ("coll", 0, "barrier"), "member",
                         1.0, 1.2)
        hb = HappensBefore(b.trace())
        assert not hb.access_ordered(access(0, 2.0),
                                     access(1, 3.0, write=False))

    def test_validation_with_degenerate_events(self):
        # validate_race_freedom over a trace holding only an unmatched
        # send: the cross-rank pair counts as unsynchronized
        trace = EventBuilder().send(0, 1, 1.0).trace()
        report = validate_race_freedom(
            trace, [(access(0, 0.5), access(1, 2.0))])
        assert report.checked_pairs == 1
        assert not report.race_free

    def test_cyclic_exchange_is_a_one_line_analysis_error(self):
        # each rank receives before it sends what the other is waiting
        # for: the matches contradict program order, so the partial
        # order has a cycle and there is nothing to validate against
        b = EventBuilder(nranks=2)
        b.recv(0, 1, 1.0, key_extra=1).send(0, 1, 2.0, key_extra=2)
        b.recv(1, 0, 1.0, key_extra=2).send(1, 0, 2.0, key_extra=1)
        trace = b.trace()
        with pytest.raises(AnalysisError) as excinfo:
            HappensBefore(trace)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "cycle" in message
        ev = next(e for e in trace.mpi_events
                  if f"rank {e.rank} {e.kind} (eid {e.eid})" in message)
        assert ev.kind in ("send", "recv")
        with pytest.raises(AnalysisError):
            validate_race_freedom(trace, [(access(0, 0.5),
                                           access(1, 3.0))])


class TestAccessOrdering:
    def test_same_rank_program_order(self):
        hb = HappensBefore(Trace(nranks=2, records=[], mpi_events=[]))
        assert hb.access_ordered(access(0, 1.0), access(0, 2.0))

    def test_write_barrier_read_ordered(self):
        trace = EventBuilder().barrier([2.0, 2.0]).trace()
        hb = HappensBefore(trace)
        w = access(0, 1.0)             # before the barrier on rank 0
        r = access(1, 3.0, write=False)  # after the barrier on rank 1
        assert hb.access_ordered(w, r)

    def test_no_sync_means_unordered(self):
        hb = HappensBefore(Trace(nranks=2, records=[], mpi_events=[]))
        assert not hb.access_ordered(access(0, 1.0), access(1, 2.0))

    def test_sync_before_write_does_not_order(self):
        # barrier happens BEFORE the write: provides no ordering for it
        trace = EventBuilder().barrier([0.5, 0.5]).trace()
        hb = HappensBefore(trace)
        assert not hb.access_ordered(access(0, 1.0),
                                     access(1, 2.0, write=False))


class TestValidateRaceFreedom:
    def test_synchronized_pairs_pass(self):
        trace = EventBuilder().barrier([2.0, 2.0]).trace()
        report = validate_race_freedom(
            trace, [(access(0, 1.0), access(1, 3.0, write=False))])
        assert report.race_free
        assert report.timestamps_trustworthy
        assert report.checked_pairs == 1

    def test_unsynchronized_pairs_flagged(self):
        trace = EventBuilder().trace()
        report = validate_race_freedom(
            trace, [(access(0, 1.0), access(1, 2.0))])
        assert not report.race_free
        with pytest.raises(RaceConditionError):
            validate_race_freedom(
                trace, [(access(0, 1.0), access(1, 2.0))],
                raise_on_race=True)

    def test_timestamp_disagreement_flagged(self):
        """A pair whose timestamp order contradicts the happens-before
        order (rank 1's access precedes rank 0's via its send, but the
        pair is presented in the opposite order, as huge clock skew
        would)."""
        trace = EventBuilder().send(1, 0, 2.0).recv(0, 1, 3.0).trace()
        early1 = access(1, 1.0)         # before its send at t=2.0
        late0 = access(0, 4.0)          # after its recv at t=3.0
        report = validate_race_freedom(trace, [(late0, early1)])
        assert report.timestamp_disagreements
        assert report.race_free


class TestEndToEnd:
    def test_app_trace_conflicts_are_race_free(self, harness):
        """§5.2's FLASH validation, on a synthesized conflicting app:
        barrier-separated cross-rank overlapping writes must be reported
        as conflicts that ARE properly synchronized."""
        from repro.core.report import analyze
        from repro.core.semantics import Semantics
        from repro.posix import flags as F

        h = harness(nranks=4)

        def program(ctx):
            ctx.comm.barrier()
            px = ctx.posix
            fd = px.open("/shared", F.O_RDWR | F.O_CREAT)
            if ctx.rank == 0:
                px.pwrite(fd, 64, 0)
            ctx.comm.barrier()
            if ctx.rank == 1:
                px.pwrite(fd, 64, 0)  # overlaps rank 0's write
            ctx.comm.barrier()
            px.close(fd)

        h.run(program, align=False)
        report = analyze(h.trace())
        conflicts = report.conflicts(Semantics.SESSION)
        assert conflicts.flags["WAW-D"]
        validation = report.validate(Semantics.SESSION)
        assert validation.race_free
        assert validation.timestamps_trustworthy
        assert validation.checked_pairs == len(conflicts)

    def test_truly_racy_writes_detected(self, harness):
        """Unsynchronized overlapping writes trip the race check."""
        from repro.core.report import analyze
        from repro.core.semantics import Semantics
        from repro.posix import flags as F

        h = harness(nranks=2)

        def program(ctx):
            px = ctx.posix
            fd = px.open("/racy", F.O_RDWR | F.O_CREAT)
            px.pwrite(fd, 64, 0)  # both ranks, no synchronization at all
            px.close(fd)

        h.run(program, align=False)
        report = analyze(h.trace())
        validation = report.validate(Semantics.SESSION)
        assert not validation.race_free
