"""Performance bench: overlap detection (§5.1's complexity note).

The paper observes Algorithm 1 is quadratic in the worst case but linear
in practice (sorting aside).  We time the sweep on realistic disjoint-ish
workloads at several sizes and against the O(n^2) oracle at one size.
"""

import numpy as np
import pytest

from repro.core.overlaps import find_overlaps
from repro.core.records import AccessRecord, AccessTable
from tests.core.reference import find_overlaps_bruteforce


def synthetic_table(n: int, overlap_fraction: float = 0.02,
                    seed: int = 5) -> AccessTable:
    """Mostly disjoint strided extents with a sprinkling of overlaps —
    the shape real checkpoint traces have."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        if rng.random() < overlap_fraction:
            start = int(rng.integers(0, n)) * 100
        else:
            start = i * 100
        length = int(rng.integers(1, 100))
        records.append(AccessRecord(
            rid=i, rank=int(rng.integers(0, 16)), path="/f",
            offset=start, stop=start + length,
            is_write=bool(rng.integers(0, 2)),
            tstart=float(i), tend=float(i) + 0.5))
    return AccessTable("/f", records)


@pytest.mark.parametrize("n", [1_000, 10_000, 50_000])
def test_bench_sweep_scaling(benchmark, n):
    table = synthetic_table(n)
    pairs = benchmark(find_overlaps, table)
    assert len(pairs) < n  # sparse-overlap workload stays near-linear


def test_bench_bruteforce_reference(benchmark):
    table = synthetic_table(1_000)
    expected = {tuple(sorted(p)) for p in
                find_overlaps(table).tolist()}
    pairs = benchmark(find_overlaps_bruteforce, table)
    assert {tuple(sorted(p)) for p in pairs.tolist()} == expected


def test_bench_worst_case_all_overlapping(benchmark):
    """Quadratic worst case: every extent overlaps every other."""
    n = 700
    records = [AccessRecord(rid=i, rank=0, path="/f", offset=0,
                            stop=1000, is_write=True, tstart=float(i),
                            tend=float(i) + 0.5) for i in range(n)]
    table = AccessTable("/f", records)
    pairs = benchmark(find_overlaps, table)
    assert len(pairs) == n * (n - 1) // 2
