#!/usr/bin/env python
"""CI perf-regression gate over the committed bench baselines.

Compares a freshly measured ``BENCH_*.json`` document against the
committed baseline in ``benchmarks/output/`` and fails the build when a
timing metric regresses beyond the tolerance band::

    python tools/bench_gate.py \
        --baseline benchmarks/output/BENCH_parallel_runner.json \
        --fresh /tmp/BENCH_parallel_runner.json [--tolerance 1.5]

Two classes of check:

* **ratio contracts** — machine-independent invariants recorded in the
  fresh document (``warm_fraction`` under its ceiling, ``speedup`` over
  its floor when the host has enough CPUs).  Always enforced.
* **absolute timings** — every ``*_s`` metric must stay within
  ``tolerance x`` of the committed baseline.  Only meaningful between
  comparable hosts, so the comparison is skipped (with a note) when the
  baseline was recorded on a host with a different CPU count; refresh
  the baseline from a CI artifact to re-arm it (see docs/ci.md).

Exit codes match the study CLI contract: 0 ok, 1 regression, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench-gate: cannot read {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(doc, dict):
        print(f"bench-gate: {path} is not a JSON object",
              file=sys.stderr)
        raise SystemExit(2)
    return doc


def check_ratio_contracts(fresh: dict) -> list[str]:
    failures = []
    contracts = fresh.get("contracts", {})
    ceiling = contracts.get("warm_fraction_ceiling")
    if ceiling is not None and fresh.get("warm_fraction") is not None:
        if fresh["warm_fraction"] > ceiling:
            failures.append(
                f"warm_fraction {fresh['warm_fraction']:.3f} exceeds "
                f"ceiling {ceiling}")
    floor = contracts.get("speedup_floor")
    if floor is not None and contracts.get("speedup_enforced") \
            and fresh.get("speedup") is not None:
        if fresh["speedup"] < floor:
            failures.append(
                f"speedup {fresh['speedup']:.2f}x below floor "
                f"{floor}x on a {fresh.get('cpu_count')}-cpu host")
    # generic form: any recorded metric bounded by a per-metric ceiling
    # (e.g. the obs bench's metrics-on/metrics-off overhead ratio)
    for metric, ceiling in sorted(
            contracts.get("ratio_ceilings", {}).items()):
        value = fresh.get(metric)
        if value is None:
            failures.append(
                f"{metric}: declared in ratio_ceilings but missing "
                f"from results")
        elif value > ceiling:
            failures.append(
                f"{metric} {value:.3f} exceeds ceiling {ceiling}")
    return failures


def check_absolute_timings(baseline: dict, fresh: dict,
                           tolerance: float) -> tuple[list[str],
                                                      list[str]]:
    failures: list[str] = []
    notes: list[str] = []
    if baseline.get("cpu_count") != fresh.get("cpu_count"):
        notes.append(
            f"baseline host ({baseline.get('cpu_count')} cpus) differs "
            f"from this host ({fresh.get('cpu_count')} cpus); absolute "
            f"timing comparison skipped — refresh the baseline from a "
            f"CI artifact to re-arm it")
        return failures, notes
    for metric, base_value in sorted(baseline.items()):
        if not metric.endswith("_s") or \
                not isinstance(base_value, (int, float)):
            continue
        fresh_value = fresh.get(metric)
        if not isinstance(fresh_value, (int, float)):
            failures.append(f"{metric}: missing from fresh results")
            continue
        limit = base_value * tolerance
        verdict = "ok" if fresh_value <= limit else "REGRESSION"
        notes.append(f"{metric}: {fresh_value:.4g}s vs baseline "
                     f"{base_value:.4g}s (limit {limit:.4g}s) "
                     f"{verdict}")
        if fresh_value > limit:
            failures.append(
                f"{metric} regressed: {fresh_value:.4g}s > "
                f"{tolerance}x baseline {base_value:.4g}s")
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_gate",
        description="fail when bench timings regress past tolerance")
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_*.json baseline")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="freshly measured BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed slowdown factor (default 1.5)")
    args = parser.parse_args(argv)
    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    if baseline.get("bench") != fresh.get("bench"):
        print(f"bench-gate: baseline is {baseline.get('bench')!r} but "
              f"fresh is {fresh.get('bench')!r}", file=sys.stderr)
        return 2

    failures = check_ratio_contracts(fresh)
    timing_failures, notes = check_absolute_timings(
        baseline, fresh, args.tolerance)
    failures.extend(timing_failures)

    for note in notes:
        print(f"bench-gate: {note}")
    if failures:
        for failure in failures:
            print(f"bench-gate: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"bench-gate: ok ({fresh.get('bench')}, "
          f"tolerance {args.tolerance}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
