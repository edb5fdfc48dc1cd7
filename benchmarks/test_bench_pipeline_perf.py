"""Performance benches for the analysis pipeline itself.

These time the stages a user pays for on every trace: offset
reconstruction, conflict detection across both semantics, and the
end-to-end analyze() call on the densest application trace.
"""

import pytest

from repro.core.conflicts import (
    VisibilityIndex,
    count_conflicts,
    detect_conflicts,
)
from repro.core.offsets import reconstruct_offsets
from repro.core.records import group_by_path
from repro.core.report import analyze
from repro.core.semantics import Semantics


@pytest.fixture(scope="module")
def flash_trace(study8):
    return study8.find("FLASH-HDF5 fbs").trace


def test_bench_offset_reconstruction(benchmark, flash_trace):
    accs = benchmark(reconstruct_offsets, flash_trace)
    assert len(accs) > 100


def test_bench_conflict_detection_session(benchmark, flash_trace):
    tables = group_by_path(reconstruct_offsets(flash_trace))

    def run():
        return detect_conflicts(VisibilityIndex(flash_trace), tables,
                                Semantics.SESSION)

    cs = benchmark(run)
    assert cs.flags["WAW-D"]


def test_bench_full_analysis(benchmark, flash_trace):
    def run():
        report = analyze(flash_trace)
        report.conflicts(Semantics.SESSION)
        report.conflicts(Semantics.COMMIT)
        _ = report.sharing, report.local_mix, report.global_mix
        return report

    report = benchmark(run)
    assert report.weakest_sufficient_semantics() is Semantics.COMMIT


def test_bench_tracing_overhead(benchmark):
    """Cost of running one mid-size proxy end-to-end under tracing."""
    from repro.apps.registry import find_variant

    variant = find_variant("NWChem", "POSIX")
    trace = benchmark.pedantic(
        lambda: variant.run(nranks=4), rounds=3, iterations=1)
    assert len(trace.records) > 100


def test_bench_conflict_counting_fast_path(benchmark, flash_trace):
    """Count-only analysis (pure numpy, no pair objects) — the path to
    use on very large traces."""
    tables = group_by_path(reconstruct_offsets(flash_trace))

    def run():
        return count_conflicts(VisibilityIndex(flash_trace), tables,
                               Semantics.SESSION)

    counts = benchmark(run)
    assert counts["WAW-D"] > 0


def test_bench_full_study(benchmark):
    """The whole §6 campaign: trace + analyze all 28 configurations."""
    from repro.core.semantics import Semantics as _S
    from repro.study.runner import run_study

    def campaign():
        results = run_study(nranks=8, seed=7)
        for run in results:
            run.report.conflicts(_S.SESSION)
        return results

    results = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert len(results) == 28
