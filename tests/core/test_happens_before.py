"""Tests for happens-before recovery and race-freedom validation (§5.2)."""

from repro.core.happens_before import HappensBefore, validate_race_freedom
from repro.core.records import AccessRecord
from repro.core.report import analyze
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

    def test_chain_through_a_rank_reached_twice(self):
        # rank 0's sends reach rank 1 at its last recv and, through
        # rank 2, at its first; the send between the two recvs carries
        # the chain on to rank 3
        b = EventBuilder(nranks=4)
        b.send(0, 2, 0.0).send(0, 1, 1.0)
        b.recv(2, 0, 0.0).send(2, 1, 1.0)
        b.recv(1, 2, 0.0).send(1, 3, 1.0).recv(1, 0, 2.0)
        b.recv(3, 1, 0.0)
        hb = HappensBefore(b.trace())
        first = hb.events_by_rank[0][0]
        last = hb.events_by_rank[3][0]
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
            HappensBefore(trace), [(access(0, 0.5), access(1, 2.0))])
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
            analyze(trace).validate()

    def test_overlapping_events_on_one_rank_are_a_one_line_analysis_error(
            self):
        # rank 0's send starts inside its barrier: per-rank queries
        # bisect event end times, which needs a rank's events in sequence
        b = EventBuilder(nranks=2).barrier([1.0, 1.0])
        b.send(0, 1, 1.05).recv(1, 0, 2.0)
        trace = b.trace()
        with pytest.raises(AnalysisError) as excinfo:
            HappensBefore(trace)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "overlap on rank 0" in message
        for ev in trace.mpi_events:
            if ev.rank == 0:
                assert f"eid {ev.eid}" in message
        with pytest.raises(AnalysisError):
            analyze(trace).validate()

    def test_touching_events_are_legal(self):
        # one event may start exactly when the previous one ends (a
        # barrier ending at 0.0 and a bcast starting at 0.0)
        b = EventBuilder(nranks=2).barrier([1.0, 1.0])
        b.send(0, 1, 1.1).recv(1, 0, 2.0)
        hb = HappensBefore(b.trace())
        barrier, send = hb.events_by_rank[0]
        recv = hb.events_by_rank[1][1]
        assert barrier.tend == send.tstart
        assert hb.event_ordered(barrier, send)
        assert hb.event_ordered(send, recv)
        assert not hb.event_ordered(recv, send)


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
            HappensBefore(trace),
            [(access(0, 1.0), access(1, 3.0, write=False))])
        assert report.race_free
        assert report.timestamps_trustworthy
        assert report.checked_pairs == 1

    def test_unsynchronized_pairs_flagged(self):
        hb = HappensBefore(EventBuilder().trace())
        report = validate_race_freedom(
            hb, [(access(0, 1.0), access(1, 2.0))])
        assert not report.race_free
        with pytest.raises(RaceConditionError):
            validate_race_freedom(
                hb, [(access(0, 1.0), access(1, 2.0))],
                raise_on_race=True)

    def test_timestamp_disagreement_flagged(self):
        """A pair whose timestamp order contradicts the happens-before
        order, as huge clock skew would make it: rank 1's clock reads 4 s
        ahead, so its access (t=5.0, before its send at t=6.0) precedes
        rank 0's (t=4.0, after its recv at t=3.0) but stamps later.  It
        is flagged in either order of the pair."""
        trace = EventBuilder().send(1, 0, 6.0).recv(0, 1, 3.0).trace()
        first1 = access(1, 5.0)
        then0 = access(0, 4.0)
        for pair in ((first1, then0), (then0, first1)):
            report = validate_race_freedom(HappensBefore(trace), [pair])
            assert report.timestamp_disagreements == [pair]
            assert report.race_free

    def test_later_first_pair_is_checked_in_time_order(self):
        """A synchronized pair listed later access first, as the object
        model lists its exemplars (by session, not by time), agrees with
        its timestamps: the earlier-starting access is checked first."""
        trace = EventBuilder().send(1, 0, 2.0).recv(0, 1, 3.0).trace()
        early1 = access(1, 1.0)         # before its send at t=2.0
        late0 = access(0, 4.0)          # after its recv at t=3.0
        report = validate_race_freedom(HappensBefore(trace),
                                       [(late0, early1)])
        assert report.race_free
        assert report.timestamps_trustworthy


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

    def test_object_pairs_agree_with_timestamps_across_the_study(
            self, study8):
        """No configuration's object exemplar pairs (a PUT session's
        first write, then a later session's first write or access, in
        session order) show as clock-skew disagreements, though some
        list the later access first."""
        from repro.core.semantics import Semantics

        later_first = 0
        for run in study8:
            pairs = run.report.conflicts(Semantics.OBJECT).access_pairs()
            later_first += int((pairs.tstart[1] < pairs.tstart[0]).sum())
            validation = run.report.validate(Semantics.OBJECT)
            assert validation.checked_pairs == pairs.tstart.shape[1]
            assert not validation.timestamp_disagreements, run.label
        assert len(study8) == 28
        assert later_first > 0

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
