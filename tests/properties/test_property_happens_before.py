"""Property: the epoch index orders events exactly as the graph oracle.

:class:`~repro.core.happens_before.HappensBefore` answers from world-sync
epochs and a search over sparse edges; :class:`ReferenceHappensBefore`
(tests/core/reference.py) builds the full entry/exit graph and one
vector clock per node.  They must agree:

* on synthetic MPI programs (:mod:`tests.synthetic`) at 4-8 ranks, on
  every cross-rank event pair, and on every session conflict pair and
  every cross-rank pair of the run's accesses in both directions;
* on raw event sets that no simulator would produce — unmatched halves,
  self-messages, partial and duplicate-member collectives, rooted
  collectives without their root, and world barriers a rank sees in
  swapped order — where both must accept the same inputs or both raise
  :class:`~repro.errors.AnalysisError`;
* on every registry configuration at 8 ranks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppConfig, run_application
from repro.apps.registry import all_variants
from repro.core.happens_before import HappensBefore
from repro.core.records import AccessRecord
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.errors import AnalysisError
from repro.tracer.recorder import Recorder
from tests.core.reference import ReferenceHappensBefore
from tests.synthetic import make_program, scripts, setup

VARIANTS = {v.label: v for v in all_variants()}
ROOTED = ("bcast", "scatter", "gather", "reduce")
SYNCS = ("barrier", "allreduce", "allgather", "alltoall")


def _assert_events_agree(hb, ref, events) -> None:
    for ea in events:
        for eb in events:
            if ea.rank != eb.rank:
                assert hb.event_ordered(ea, eb) == \
                    ref.event_ordered(ea, eb), (ea, eb)


def _assert_pairs_agree(hb, ref, pairs) -> None:
    for a, b in pairs:
        assert hb.access_ordered(a, b) == ref.access_ordered(a, b)
        assert hb.access_ordered(b, a) == ref.access_ordered(b, a)


def _session_pairs(trace):
    return [(c.first, c.second)
            for c in analyze(trace).conflicts(Semantics.SESSION)]


@given(script=scripts, nranks=st.sampled_from([4, 6, 8]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=12, deadline=None)
def test_sweep_matches_oracle_on_synthetic_programs(script, nranks, seed):
    cfg = AppConfig(application="synthetic", nranks=nranks, seed=seed,
                    clock_skew_us=10.0)
    trace = run_application(cfg, make_program(script), setup=setup)
    hb, ref = HappensBefore(trace), ReferenceHappensBefore(trace)
    _assert_events_agree(hb, ref, list(trace.mpi_events))
    _assert_pairs_agree(hb, ref, _session_pairs(trace))
    # the generator's writes never overlap, so every cross-rank pair of
    # the run's accesses stands in for conflicts too
    accesses = analyze(trace).accesses
    _assert_pairs_agree(hb, ref, [(a, b) for a in accesses
                                  for b in accesses if a.rank != b.rank])


@st.composite
def event_sets(draw):
    """A Recorder holding one drawn program of MPI events per rank."""
    nranks = draw(st.integers(2, 5))
    rank = st.integers(0, nranks - 1)
    programs: list[list[tuple]] = [[] for _ in range(nranks)]
    for index in range(draw(st.integers(0, 10))):
        op = draw(st.sampled_from(
            ("p2p", "rooted", "partial", "world", "swapped")))
        if op == "p2p":  # src == dest is a self-message
            src, dest = draw(rank), draw(rank)
            halves = draw(st.sampled_from(("both", "send", "recv")))
            key = ("p2p", src, dest, 0, index)
            if halves != "recv":
                programs[src].append(("send", key, "sender"))
            if halves != "send":
                programs[dest].append(("recv", key, "receiver"))
        elif op in ("rooted", "partial"):
            kind = draw(st.sampled_from(ROOTED if op == "rooted"
                                        else SYNCS))
            members = draw(st.lists(rank, min_size=1, max_size=nranks,
                                    unique=True))
            if draw(st.integers(0, 5)) == 0:  # a rank enters it twice
                members.append(draw(st.sampled_from(members)))
            root = draw(st.integers(-1, len(members) - 1))  # -1: no root
            for i, r in enumerate(members):
                programs[r].append((kind, ("coll", index, kind),
                                    "root" if i == root else "member"))
        elif op == "world":
            kind = draw(st.sampled_from(SYNCS))
            for r in range(nranks):
                programs[r].append((kind, ("coll", index, kind), "member"))
        else:  # two world barriers; maybe one rank swaps them
            swapped = draw(st.integers(-nranks, nranks - 1))
            for r in range(nranks):
                pair = [("barrier", ("coll", index, k), "member")
                        for k in (0, 1)]
                programs[r].extend(pair[::-1] if r == swapped else pair)
    for r, pos in draw(st.lists(st.tuples(rank, st.integers(0, 12)),
                                max_size=1)):
        prog = programs[r]
        if pos + 1 < len(prog):
            prog[pos], prog[pos + 1] = prog[pos + 1], prog[pos]
    # sequential per rank; a duration of 1.0 makes boundaries touch
    duration = draw(st.sampled_from((0.5, 1.0)))
    rec = Recorder(nranks)
    for r, prog in enumerate(programs):
        for i, (kind, key, role) in enumerate(prog):
            rec.record_mpi(r, kind, key, role, float(i), i + duration)
    return rec


def _built(cls, trace):
    try:
        return cls(trace)
    except AnalysisError:
        return None


@given(rec=event_sets())
@settings(max_examples=300, deadline=None)
def test_sweep_matches_oracle_on_raw_event_sets(rec):
    trace = rec.build_trace()
    hb = _built(HappensBefore, trace)
    ref = _built(ReferenceHappensBefore, trace)
    assert (hb is None) == (ref is None)
    if hb is None:
        return
    assert hb.events_by_rank == ref.events_by_rank
    events = list(trace.mpi_events)
    for ea in events:
        for eb in events:
            assert hb.event_ordered(ea, eb) == ref.event_ordered(ea, eb)
    # per rank, an access just before each event starts and one near
    # the end of its last event, against every access
    accesses = [AccessRecord(rid=k, rank=r, path="/f", offset=0, stop=1,
                             is_write=True, tstart=i - 0.2, tend=i - 0.1)
                for k, (r, i) in enumerate(
                    (r, i) for r in range(trace.nranks)
                    for i in range(len(hb.events_by_rank[r]) + 1))]
    _assert_pairs_agree(hb, ref, [(a, b) for a in accesses
                                  for b in accesses])


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_every_configuration_matches_oracle(label):
    trace = VARIANTS[label].run(nranks=8, seed=7)
    hb, ref = HappensBefore(trace), ReferenceHappensBefore(trace)
    events = list(trace.mpi_events)
    _assert_events_agree(hb, ref, events[::max(1, len(events) // 120)])
    _assert_pairs_agree(hb, ref, _session_pairs(trace))
