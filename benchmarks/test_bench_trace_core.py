"""Bench: columnar trace core vs the per-record object pipeline.

Builds a seeded synthetic trace of ``REPRO_BENCH_TRACE_OPS`` data ops
(default 10^6) and times the full conflict-detection pipeline twice:

* **columnar** — ``reconstruct_tables_columnar`` +
  ``VisibilityIndex.from_columnar`` + the numpy pair classifiers, all
  over :class:`~repro.tracer.columnar.ColumnarTrace` arrays;
* **object** — the original per-record path: materialize
  ``TraceRecord`` objects, replay ``reconstruct_offsets``, group into
  tables, build the visibility index from the record list.

Both must produce *identical* conflict counts (the columnar path is an
optimization, not an approximation), and the columnar/object time ratio
is a machine-independent contract: ``columnar_over_object`` must stay
under ``RATIO_CEILING`` (0.1 == the ISSUE's >=10x speedup at 10^6 ops).
``tools/bench_gate.py`` enforces the ratio on every host and the
absolute ``*_s`` timings between comparable hosts, against the
committed ``benchmarks/output/BENCH_trace_core.json``.

The ratio contract is only asserted when the trace is at least
``RATIO_MIN_OPS`` ops — below that the object path's fixed costs do
not dominate and the ratio is noise (parity is still asserted).  The
``.rtrc`` save/load timings ride along as informational ``*_s``
metrics so a format-level regression (e.g. an accidental copy on load)
shows up in the same gate.
"""

from __future__ import annotations

import json
import os
import platform
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.core import offsets
from repro.core.conflicts import (
    VisibilityIndex,
    count_conflicts,
    count_conflicts_columnar,
)
from repro.core.offsets import reconstruct_offsets
from repro.core.records import group_by_path
from repro.core.semantics import Semantics
from repro.tracer import read_rtrc
from repro.tracer.synth import synthetic_columnar_trace

N_OPS = int(os.environ.get("REPRO_BENCH_TRACE_OPS", "1000000"))
SEED = 42
SEMANTICS = Semantics.SESSION
ROUNDS_COLUMNAR = 3
ROUNDS_OBJECT = 2
#: columnar pipeline time / object pipeline time: the >=10x contract
RATIO_CEILING = 0.1
#: below this size the ratio is noise and only parity is asserted
RATIO_MIN_OPS = 500_000
#: the pytest-benchmark micro runs use a slice of the full trace size
N_MICRO = max(N_OPS // 10, 10_000)


@pytest.fixture(scope="module")
def ct():
    return synthetic_columnar_trace(N_OPS, seed=SEED)


@pytest.fixture(scope="module")
def tr(ct):
    # materializing 10^6 TraceRecord objects is the object pipeline's
    # input, not part of either timed region
    return ct.to_trace()


def _columnar_pipeline(ct):
    return count_conflicts_columnar(ct, SEMANTICS)


def _object_pipeline(tr):
    tables = group_by_path(reconstruct_offsets(tr.records))
    return count_conflicts(VisibilityIndex(tr), tables, SEMANTICS)


def _best_of(fn, rounds):
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


def test_bench_columnar_pipeline(benchmark):
    small = synthetic_columnar_trace(N_MICRO, seed=SEED)
    counts = benchmark.pedantic(_columnar_pipeline, args=(small,),
                                rounds=3, iterations=1)
    assert sum(counts.values()) > 0


def test_bench_rtrc_load(benchmark, tmp_path, ct):
    path = tmp_path / "bench.rtrc"
    ct.save(path)
    loaded = benchmark.pedantic(read_rtrc, args=(path,),
                                rounds=3, iterations=1)
    assert loaded.nrecords == ct.nrecords


def test_trace_core_contract(artifacts, tmp_path, ct, tr):
    """Time both pipelines, assert parity + ratio, emit the baseline."""
    # the measured columnar path must be the vectorized one — a silent
    # fallback to object replay would make the ratio meaningless
    try:
        offsets._reconstruct_vectorized(ct)
    except offsets._ColumnarFallback:
        pytest.fail("synthetic trace fell back to object replay; the "
                    "bench would time the object path against itself")

    col_counts, col_s = _best_of(lambda: _columnar_pipeline(ct),
                                 ROUNDS_COLUMNAR)
    obj_counts, obj_s = _best_of(lambda: _object_pipeline(tr),
                                 ROUNDS_OBJECT)

    # identical classification, class by class
    assert col_counts == obj_counts, (
        f"columnar {col_counts} != object {obj_counts}")

    # .rtrc round trip: write once, zero-copy load once
    path = tmp_path / "bench.rtrc"
    t0 = time.perf_counter()
    ct.save(path)
    save_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    loaded = read_rtrc(path)
    load_s = time.perf_counter() - t0
    assert loaded.columns_equal(ct)

    ratio = col_s / obj_s if obj_s else float("inf")
    doc = {
        "bench": "trace_core",
        "ops": N_OPS,
        "rows": ct.nrecords,
        "seed": SEED,
        "semantics": SEMANTICS.name.lower(),
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.machine(),
        "python": platform.python_version(),
        "columnar_s": round(col_s, 4),
        "object_s": round(obj_s, 4),
        "rtrc_save_s": round(save_s, 4),
        "rtrc_load_s": round(load_s, 4),
        "rtrc_bytes": path.stat().st_size,
        "columnar_over_object": round(ratio, 4),
        "speedup": round(1.0 / ratio, 2) if ratio else None,
        "counts": col_counts,
        "contracts": {
            "ratio_ceilings": {"columnar_over_object": RATIO_CEILING},
        },
    }
    save_artifact(artifacts, "BENCH_trace_core.json",
                  json.dumps(doc, indent=2, sort_keys=True))
    save_artifact(artifacts, "BENCH_trace_core.txt", "\n".join([
        f"synthetic trace: {N_OPS} data ops ({ct.nrecords} rows), "
        f"seed={SEED}, semantics={doc['semantics']}",
        f"columnar pipeline {col_s:8.3f}s",
        f"object pipeline   {obj_s:8.3f}s  "
        f"(columnar/object {ratio:.4f}, {doc['speedup']:.1f}x)",
        f"rtrc save {save_s:.3f}s  load {load_s:.3f}s  "
        f"({doc['rtrc_bytes']} bytes)",
        f"counts {json.dumps(col_counts, sort_keys=True)}",
    ]))

    if N_OPS >= RATIO_MIN_OPS:
        assert ratio <= RATIO_CEILING, (
            f"columnar pipeline cost {ratio:.4f}x the object pipeline "
            f"(ceiling {RATIO_CEILING} == {1 / RATIO_CEILING:.0f}x "
            f"speedup) at {N_OPS} ops")
