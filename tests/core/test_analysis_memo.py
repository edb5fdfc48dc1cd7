"""The analysis of a trace is computed once and holds no trace alive.

``analyze`` memoizes every ``RunReport`` stage on the trace's columnar
form, so a study cell, a later race check and a lint run of the same
trace share offsets, tables, timelines, conflict sets and the
happens-before order.  Each conflict kernel runs once per trace, however
many files the trace has.  The memo holds arrays, never the trace: a
pass run with the cyclic collector off must free every trace it made.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.apps.registry import all_variants
from repro.core import conflicts, report
from repro.core.happens_before import HappensBefore
from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.lint import lint_trace
from repro.study.runner import SUMMARY_SEMANTICS, cell_summary
from repro.tracer.trace import Trace

#: (module, name) of every stage function, counted per call
STAGES = [(report, name) for name in (
    "reconstruct_offsets", "group_by_path", "VisibilityIndex",
    "detect_conflicts", "classify_sharing", "local_pattern_mix",
    "global_pattern_mix", "detect_metadata_conflicts",
    "validate_race_freedom")] + [(conflicts, "find_overlaps")]


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the stage functions (and of ``Trace.validate`` and
    of every ``HappensBefore`` build, however it is reached), keyed by
    name; ``detect_conflicts`` is keyed by model too."""
    counted = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            key = name
            if name == "detect_conflicts":
                key = (name, args[2])
            counted[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in STAGES:
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    monkeypatch.setattr(Trace, "validate",
                        counting("validate", Trace.validate))
    monkeypatch.setattr(HappensBefore, "__init__",
                        counting("HappensBefore", HappensBefore.__init__))
    return counted


def test_analyzing_a_trace_twice_runs_each_stage_once(variant_by_label,
                                                      calls):
    variant = variant_by_label["FLASH-HDF5 fbs"]
    trace = variant.run(nranks=4, seed=7)
    first = cell_summary(variant, trace, seed=7)
    race = analyze(trace).validate(Semantics.SESSION)
    second = cell_summary(variant, trace, seed=7)
    assert first == second and race.race_free
    assert len(analyze(trace).tables) > 1
    assert calls == Counter({
        "validate": 1, "reconstruct_offsets": 1, "group_by_path": 1,
        "VisibilityIndex": 1, "classify_sharing": 1,
        "detect_metadata_conflicts": 1, "validate_race_freedom": 1,
        "HappensBefore": 1,
        # one overlap sweep per trace, shared by the byte-level models
        "find_overlaps": 1,
        **{("detect_conflicts", s): 1 for s in SUMMARY_SEMANTICS}})


def test_a_summarized_race_checked_and_linted_trace_is_analyzed_once(
        variant_by_label, calls):
    """Lint reads the report's conflict sets and happens-before order:
    it runs no conflict model and builds no order of its own."""
    variant = variant_by_label["FLASH-HDF5 fbs"]
    trace = variant.run(nranks=4, seed=7)
    cell_summary(variant, trace, seed=7)
    analyze(trace).validate(Semantics.SESSION)
    assert lint_trace(trace).for_rule("session-hazard")
    # detect_conflicts is the one stage counted per (name, model)
    assert {k: n for k, n in calls.items() if isinstance(k, tuple)} == {
        ("detect_conflicts", s): 1 for s in SUMMARY_SEMANTICS}
    assert calls["HappensBefore"] == 1
    assert calls["find_overlaps"] == 1
    # the race check, then lint's unordered-race rule
    assert calls["validate_race_freedom"] == 2


#: the conflict kernels, each run once per trace (and per model)
KERNELS = ("find_overlaps", "candidate_pairs", "_cleared",
           "_object_sessions", "_object_conflict_pairs")


def test_a_file_per_process_trace_runs_each_conflict_kernel_once(
        variant_by_label, monkeypatch):
    """Ckpt-IO fpp writes one file per rank: the kernels run once for
    the trace, not once per file."""
    counted = Counter()
    for name in KERNELS:
        def wrapper(*args, _fn=getattr(conflicts, name), _name=name):
            model = [a for a in args if isinstance(a, Semantics)]
            counted[(_name, *model)] += 1
            return _fn(*args)
        monkeypatch.setattr(conflicts, name, wrapper)
    variant = variant_by_label["Ckpt-IO-POSIX fpp"]
    trace = variant.run(nranks=16, seed=7)
    cell_summary(variant, trace, seed=7)
    analyze(trace).validate(Semantics.SESSION)
    assert len(analyze(trace).tables) == 65
    assert counted == Counter({
        ("find_overlaps",): 1, ("candidate_pairs",): 1,
        ("_cleared", Semantics.COMMIT): 1,
        ("_cleared", Semantics.SESSION): 1,
        ("_object_sessions",): 1, ("_object_conflict_pairs",): 1})


def test_reports_of_one_trace_share_stage_results(variant_by_label):
    trace = variant_by_label["LAMMPS-ADIOS"].run(nranks=4, seed=7)
    a, b = analyze(trace), analyze(trace.columnar.to_trace())
    assert a is not b
    assert a.tables is b.tables and a.visibility is b.visibility
    assert a.conflicts(Semantics.COMMIT) is b.conflicts(Semantics.COMMIT)
    assert a.happens_before is b.happens_before


def test_a_pass_with_the_cyclic_collector_off_frees_its_traces():
    """One ``campaign`` pass at a small scale: each configuration traced,
    summarized and race-checked, with the cyclic collector off, as the
    benchmark runs it, then linted.  No trace of the pass may outlive
    it."""
    alive = []

    def unit(variant):
        trace = variant.run(nranks=4, seed=7)
        alive.append(weakref.ref(trace.columnar))
        cell_summary(variant, trace, seed=7)
        analyze(trace).validate(Semantics.SESSION)
        lint_trace(trace)

    gc.collect()
    gc.disable()
    try:
        for variant in all_variants():
            unit(variant)
        left = sum(ref() is not None for ref in alive)
    finally:
        gc.enable()
    assert len(alive) == 28 and left == 0
