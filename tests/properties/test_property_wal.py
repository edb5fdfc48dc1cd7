"""Property tests over the WAL acked-durable audit.

The WAL accounting agrees with the chaos checker's lost-acked
invariant: on the healthy deployment (strong WAL, flushes running) the
audit counts zero losses whenever the checker is clean, and every
record the audit does lose under a weak WAL was legally discardable (no
checker violation claims it).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import find_variant
from repro.core.semantics import Semantics
from repro.faults import CrashEvent, FaultPlan, audit_wal
from repro.pfs.config import PFSConfig
from repro.pfs.replay import replay_trace

STRIPE = 1 << 16
_WAL_TRACE = None


def wal_trace():
    global _WAL_TRACE
    if _WAL_TRACE is None:
        _WAL_TRACE = find_variant("Ckpt-IO", "POSIX", "wal").run(
            nranks=2, seed=7)
    return _WAL_TRACE


@given(st.integers(2, 40), st.sampled_from(["ost:0", "ost:1", "mds"]))
@settings(max_examples=25, deadline=None)
def test_healthy_wal_audit_matches_checker(at_op, target):
    """Strong WAL + running flushes: whenever the checker finds no
    contract violation, the audit finds no lost acked record — the
    chaos gate's zero-loss acceptance criterion, quantified over crash
    points."""
    trace = wal_trace()
    wal_dir = trace.meta["options"]["wal_dir"]
    config = PFSConfig(
        semantics=Semantics.SESSION, stripe_size=STRIPE,
        semantics_overrides={wal_dir + "/": Semantics.STRONG})
    plan = FaultPlan(name="crash", seed=7,
                     crashes=(CrashEvent(target=target, at_op=at_op),))
    result = replay_trace(trace, config, plan=plan)
    audit = audit_wal(trace, result, settle_order=config.settle_order)
    assert audit is not None
    if not result.violations:
        assert audit.ok, audit.to_dict()
    # the ledger always balances, violations or not
    assert audit.survived_in_wal + audit.covered_by_segment \
        + len(audit.lost) == audit.acked_records


@given(st.integers(2, 40))
@settings(max_examples=25, deadline=None)
def test_weak_wal_losses_are_legal_discards(at_op):
    """With the WAL on the shared store's weak model the audit may
    count losses the checker never flags — but only because every one
    of them was a *legal* discard: the checker attributes no violation
    to the WAL, so the disagreement is exactly the acked-but-unflushed
    window, never a checker miss."""
    trace = wal_trace()
    config = PFSConfig(semantics=Semantics.SESSION, stripe_size=STRIPE)
    plan = FaultPlan(name="crash", seed=7,
                     crashes=(CrashEvent(target="ost:0", at_op=at_op),))
    result = replay_trace(trace, config, plan=plan)
    audit = audit_wal(trace, result, settle_order=config.settle_order)
    wal_dir = trace.meta["options"]["wal_dir"]
    assert not any(v.path.startswith(wal_dir)
                   for v in result.violations)
    assert audit.survived_in_wal + audit.covered_by_segment \
        + len(audit.lost) == audit.acked_records
