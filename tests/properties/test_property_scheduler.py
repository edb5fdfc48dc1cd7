"""Property: keyed wakeups dispatch exactly like the polling scheduler.

Hypothesis draws small synthetic MPI programs (:mod:`tests.synthetic`)
and runs each through :class:`~repro.sim.engine.SimEngine` and through
:class:`~tests.sim.reference.ReferenceEngine`, which re-checks every
blocked predicate at each dispatch.  A wakeup the keyed engine missed
or delivered late would reorder ranks, so both runs must resume ranks
in the same order and produce the same trace: records, MPI events, and
conflict counts under every model.

Every registry configuration runs through both engines too.  That
covers waits the generator never builds: the ``schedule()``-driven
Ckpt-IO WAL drain, the ADIOS sub-communicator gather, and the Silo and
VASP point-to-point chains.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppConfig, run_application
from repro.apps.registry import all_variants
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.sim.engine import SimEngine
from tests.sim.reference import ReferenceEngine, resume_order
from tests.synthetic import make_program, scripts, setup

VARIANTS = {v.label: v for v in all_variants()}


@pytest.mark.parametrize("nranks", [8, 64])
@given(script=scripts, seed=st.integers(0, 2 ** 16))
@settings(max_examples=8, deadline=None)
def test_keyed_engine_matches_reference(nranks, script, seed):
    cfg = AppConfig(application="synthetic", nranks=nranks, seed=seed,
                    clock_skew_us=10.0)

    def execute():
        return run_application(cfg, make_program(script), setup=setup)

    keyed, keyed_order = resume_order(SimEngine, execute)
    reference, reference_order = resume_order(ReferenceEngine, execute)
    assert keyed_order == reference_order
    assert keyed.records == reference.records
    assert keyed.mpi_events == reference.mpi_events

    keyed_report = analyze(keyed)
    reference_report = analyze(reference)
    for semantics in Semantics:
        assert len(keyed_report.conflicts(semantics)) == \
            len(reference_report.conflicts(semantics))


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_every_configuration_matches_reference(label):
    variant = VARIANTS[label]

    def execute():
        return variant.run(nranks=8, seed=7)

    keyed, keyed_order = resume_order(SimEngine, execute)
    reference, reference_order = resume_order(ReferenceEngine, execute)
    assert keyed_order == reference_order
    assert keyed.columnar.columns_equal(reference.columnar)
