"""Property: keyed wakeups dispatch exactly like the polling scheduler.

Hypothesis draws small synthetic MPI programs (:mod:`tests.synthetic`)
and runs each through :class:`~repro.sim.engine.SimEngine` and through
:class:`~tests.sim.reference.ReferenceEngine`, which re-checks every
blocked predicate at each dispatch.  A wakeup the keyed engine missed
or delivered late would reorder ranks, so both runs must resume ranks
in the same order and produce the same trace: records, MPI events, and
conflict counts under every model.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import base
from repro.apps.base import AppConfig, run_application
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.sim.engine import SimEngine
from tests.sim.reference import ReferenceEngine
from tests.synthetic import make_program, scripts, setup


def _run(engine_cls, cfg, script):
    """The trace and the order in which ranks resumed from the engine."""
    resumed: list[int] = []
    checkpoint, wait_until = SimEngine.checkpoint, SimEngine.wait_until

    def logged_checkpoint(self, rank):
        checkpoint(self, rank)
        resumed.append(rank)

    def logged_wait_until(self, rank, *args, **kwargs):
        wait_until(self, rank, *args, **kwargs)
        resumed.append(rank)

    with mock.patch.object(base, "SimEngine", engine_cls), \
            mock.patch.object(SimEngine, "checkpoint", logged_checkpoint), \
            mock.patch.object(SimEngine, "wait_until", logged_wait_until):
        trace = run_application(cfg, make_program(script), setup=setup)
    return trace, resumed


@pytest.mark.parametrize("nranks", [8, 64])
@given(script=scripts, seed=st.integers(0, 2 ** 16))
@settings(max_examples=8, deadline=None)
def test_keyed_engine_matches_reference(nranks, script, seed):
    cfg = AppConfig(application="synthetic", nranks=nranks, seed=seed,
                    clock_skew_us=10.0)
    keyed, keyed_order = _run(SimEngine, cfg, script)
    reference, reference_order = _run(ReferenceEngine, cfg, script)
    assert keyed_order == reference_order
    assert keyed.records == reference.records
    assert keyed.mpi_events == reference.mpi_events

    keyed_report = analyze(keyed)
    reference_report = analyze(reference)
    for semantics in Semantics:
        assert len(keyed_report.conflicts(semantics)) == \
            len(reference_report.conflicts(semantics))
