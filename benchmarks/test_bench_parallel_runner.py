"""Bench: the parallel cached study runner vs the serial baseline.

Times the full ``study all`` matrix (28 configurations, 4 ranks) three
ways — serial, pooled, and cache-served — and writes the measured
contract to ``benchmarks/output/BENCH_parallel_runner.json``, the
baseline CI's ``bench-regression`` job gates against.

Three contracts are asserted here, not just recorded:

* the cold cache run computes every cell of the matrix and the warm
  rerun serves every cell from the cache — both counts are recorded
  and equal ``len(all_variants())`` on every host;
* a warm cache must serve the whole matrix in <10% of the cold time
  (this holds on any machine — a cache hit is a JSON read);
* with 4+ CPUs, ``jobs=4`` must beat serial by >=2x.  Single- and
  dual-core machines cannot demonstrate that, so the speedup assertion
  is gated on ``os.cpu_count()`` while the measurement is still taken
  and written to the artifact for inspection.
"""

from __future__ import annotations

import json
import os
import platform
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.apps.registry import all_variants
from repro.study.cache import ResultCache
from repro.study.runner import matrix_json, study_cells

NRANKS = 4
SEED = 7
JOBS = 4
#: warm-cache reruns must cost under this fraction of a cold run
WARM_FRACTION_CEILING = 0.10
#: required pooled speedup — only enforceable with enough cores
SPEEDUP_FLOOR = 2.0
MIN_CPUS_FOR_SPEEDUP = 4


def _serial(cache=None):
    return study_cells(nranks=NRANKS, seed=SEED, jobs=1, cache=cache)


def _parallel(cache=None):
    return study_cells(nranks=NRANKS, seed=SEED, jobs=JOBS, cache=cache)


def test_bench_study_matrix_serial(benchmark):
    run = benchmark.pedantic(_serial, rounds=3, iterations=1)
    assert run.computed == len(run.outcomes) == len(all_variants())


def test_bench_study_matrix_parallel(benchmark):
    run = benchmark.pedantic(_parallel, rounds=3, iterations=1)
    assert run.computed == len(run.outcomes) == len(all_variants())


def test_bench_study_matrix_warm_cache(benchmark, tmp_path):
    _serial(cache=ResultCache(root=tmp_path))  # prime

    def warm():
        return _serial(cache=ResultCache(root=tmp_path))

    run = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert run.cached == len(run.outcomes) == len(all_variants())


def _best_of(fn, rounds=3):
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


def test_parallel_runner_contract(artifacts, tmp_path):
    """Measure the three modes, assert the contracts, emit the baseline."""
    serial_run, serial_s = _best_of(_serial)
    parallel_run, parallel_s = _best_of(_parallel)

    # determinism: pooled output must be byte-identical to serial
    assert matrix_json(parallel_run.payloads, nranks=NRANKS,
                       seed=SEED) == \
        matrix_json(serial_run.payloads, nranks=NRANKS, seed=SEED)

    cold_run, cold_cache_s = _best_of(
        lambda: _serial(cache=ResultCache(root=tmp_path / "cache")),
        rounds=1)
    warm_run, warm_cache_s = _best_of(
        lambda: _serial(cache=ResultCache(root=tmp_path / "cache")))
    assert matrix_json(warm_run.payloads, nranks=NRANKS, seed=SEED) == \
        matrix_json(serial_run.payloads, nranks=NRANKS, seed=SEED)

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    warm_fraction = warm_cache_s / cold_cache_s if cold_cache_s \
        else 0.0
    cpus = os.cpu_count() or 1
    doc = {
        "bench": "parallel_runner",
        "cells": len(serial_run.outcomes),
        "nranks": NRANKS,
        "seed": SEED,
        "jobs": JOBS,
        "cpu_count": cpus,
        "platform": platform.machine(),
        "python": platform.python_version(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 3),
        "cold_cache_s": round(cold_cache_s, 4),
        "cold_computed": cold_run.computed,
        "warm_cache_s": round(warm_cache_s, 4),
        "warm_cached": warm_run.cached,
        "warm_fraction": round(warm_fraction, 4),
        "contracts": {
            "warm_fraction_ceiling": WARM_FRACTION_CEILING,
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup_enforced": cpus >= MIN_CPUS_FOR_SPEEDUP,
        },
    }
    save_artifact(artifacts, "BENCH_parallel_runner.json",
                  json.dumps(doc, indent=2, sort_keys=True))
    save_artifact(artifacts, "BENCH_parallel_runner.txt", "\n".join([
        f"study all matrix: {doc['cells']} cells, nranks={NRANKS}",
        f"serial      {serial_s:8.3f}s",
        f"jobs={JOBS}      {parallel_s:8.3f}s  (speedup {speedup:.2f}x,"
        f" {cpus} cpus)",
        f"cold cache  {cold_cache_s:8.3f}s  "
        f"({cold_run.computed} computed)",
        f"warm cache  {warm_cache_s:8.3f}s  "
        f"({warm_run.cached} cached, fraction {warm_fraction:.3f})",
    ]))

    cells = len(all_variants())
    assert cold_run.computed == cells, (
        f"cold run computed {cold_run.computed} of {cells} cells")
    assert warm_run.cached == cells, (
        f"warm rerun served {warm_run.cached} of {cells} cells "
        f"from the cache")
    assert warm_fraction <= WARM_FRACTION_CEILING, (
        f"warm cache rerun took {warm_fraction:.1%} of cold "
        f"({warm_cache_s:.3f}s vs {cold_cache_s:.3f}s)")
    if cpus >= MIN_CPUS_FOR_SPEEDUP:
        assert speedup >= SPEEDUP_FLOOR, (
            f"jobs={JOBS} speedup {speedup:.2f}x < "
            f"{SPEEDUP_FLOOR}x on a {cpus}-cpu host")
