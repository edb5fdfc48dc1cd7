"""Trace-to-verdict benchmark of the repro pipeline.

Run from the repository root::

    python3 perfbench/run.py --placement one-cpu --workload campaign \\
        --seed 7 --seconds 15 --trace 0

One invocation runs one workload of perfbench/workloads.py in a fresh
process, single-threaded on the calling side and through the public
library API.  It prints a report and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics: ``pass_s``, the time of one timed pass (the time to verdict);
``records_per_s``, trace records taken to a verdict per second;
``setup_s``, the imports plus the median of several untimed set-ups;
and ``peak_rss_mb``.  Times are in reference seconds: every timed step
-- a configuration of ``campaign``, a stage of ``bigtrace`` -- runs
between two probes of the host's speed and is scaled to a host of fixed
speed (perfbench/hostspeed.py), because the shared host's speed drifts
by half from minute to minute.  ``pass_s`` sums each step's median over
the passes.  The report also prints the raw wall times.

``--trace 1`` measures untraced passes, then the same passes with spans
around every layer's public calls (perfbench/layers.py).  It reports
the per-layer metrics of the traced pass with the median wall time --
CPU self time per layer, work counts that repeat exactly, and the
unattributed remainder -- plus the tracing overhead, and writes the
spans to ``.perfbench/spans-<workload>.npz``.

``--placement one-cpu`` pins the process, and with it every simulated
rank thread, to one CPU.  Simulator wall time depends on where the OS
places the cooperative rank threads (handing off across two CPUs of a
busy 2-CPU host made ``campaign`` two to three times slower), so the
placement is part of the command and both sides of a comparison share
it.

Every pass is checked: the paper's expectations per configuration at
any seed, per-unit output digests pinned in perfbench/expected.json at
the recorded seed, and identical outputs from pass to pass.  A unit
that raises or fails a check counts toward ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("campaign", "bigtrace")
#: untimed set-ups per run; setup_s adds the imports to their median
SETUP_REPEATS = 3
#: fewest timed passes per measuring phase, however long one pass takes
MIN_PASSES = 3
END_TO_END_UNITS = {"pass_s": "s", "records_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Trace-to-verdict benchmark of the repro pipeline.")
    parser.add_argument("--placement", required=True, choices=("one-cpu",))
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> int:
    """Pin the process to one CPU; threads started later inherit it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(run_pass, seconds: float) -> list:
    """Timed passes until ``seconds`` are spent and MIN_PASSES ran.

    Garbage is collected before each pass, so no pass pays for the one
    before, and the cyclic collector is off during it: its full
    collections walk the whole heap, and their cost swung one pass by
    up to a third on a shared 2-CPU host.
    """
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()
        gc.disable()
        try:
            passes.append(run_pass())
        finally:
            gc.enable()
    return passes


def traced_pass(workload, tracer):
    """One pass with spans on and the repro.obs counters collecting."""
    from repro import obs

    from layers import OBS_COUNTERS

    registry = obs.enable()
    try:
        result = workload.run_pass()
    finally:
        obs.disable()
    result.spans = tracer.drain()
    result.counts.update(tracer.counts)
    tracer.counts.clear()
    for name in OBS_COUNTERS:
        result.counts[name] += registry.counter(name).value
    return result


def verify(workload, passes: list) -> tuple[int, int, list[str]]:
    """Check every unit of every pass: (attempted, failed, problems)."""
    from workloads import RECORDED_SEED, digest, pinned_digests

    reference: dict[str, dict] = {}
    for result in passes:
        for label, doc in result.docs.items():
            reference.setdefault(label, doc)
    pinned = (pinned_digests(workload.name)
              if workload.seed == RECORDED_SEED else None)
    problems: list[str] = []
    broken: set[str] = set()
    for label, doc in reference.items():
        found = workload.check(label, doc)
        if pinned is not None and digest(doc) != pinned.get(label):
            found.append("output differs from the digest pinned at seed "
                         f"{RECORDED_SEED}")
        if found:
            broken.add(label)
            problems += [f"{label}: {text}" for text in found]
    digests = {label: digest(doc) for label, doc in reference.items()}
    attempted = failed = 0
    for i, result in enumerate(passes):
        for label in workload.units:
            attempted += 1
            if label in result.errors:
                problems.append(f"pass {i}: {label} raised "
                                f"{result.errors[label]}")
            elif digest(result.docs[label]) != digests[label]:
                problems.append(f"pass {i}: {label} output changed "
                                f"between passes")
            elif label not in broken:
                continue
            failed += 1
    return attempted, failed, problems


def percentile_text(walls: list[float]) -> str:
    """The highest percentile with at least ten passes beyond it."""
    n = len(walls)
    if n <= 10:
        return f"{n} passes, too few for a percentile with 10 beyond it"
    k = n - 10  # the k-th fastest pass has exactly ten slower ones
    return f"{n} passes; p{100 * k / n:.0f} {sorted(walls)[k - 1]:.4f} s"


def pass_s(passes: list) -> float:
    """One pass in reference seconds: the sum of each step's median."""
    labels = {label for p in passes for label in p.steps}
    return sum(statistics.median(p.steps[label] for p in passes
                                 if label in p.steps) for label in labels)


def end_to_end(plain: list, setup_s: float) -> dict[str, float]:
    seconds = pass_s(plain)
    return {
        "pass_s": seconds,
        "records_per_s": statistics.median(p.records for p in plain) / seconds,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer, plain: list, traced: list) -> dict[str, float]:
    """Per-layer metrics of the traced pass with the median wall time."""
    from layers import COUNT_METRICS, TIME_METRICS

    result = sorted(traced, key=lambda p: p.wall_s)[(len(traced) - 1) // 2]
    selfs = tracer.self_times(result.spans)
    metrics = {metric: selfs.get(layer, 0.0)
               for layer, metric in TIME_METRICS.items()}
    counts = result.counts
    counts["sim.handoffs"] = counts["sim.checkpoints"] + counts["sim.blocks"]
    metrics.update((name, counts[name]) for name in COUNT_METRICS)
    handoffs = metrics["sim.handoffs"]
    metrics["sim.handoff_us"] = (1e6 * metrics["sim.dispatch_s"] / handoffs
                                 if handoffs else 0.0)
    metrics["unattributed_s"] = result.wall_s - sum(selfs.values())
    metrics["traced_wall_s"] = result.wall_s
    metrics["trace_overhead_frac"] = pass_s(traced) / pass_s(plain) - 1
    return metrics


def print_layer_table(metrics: dict[str, float]) -> None:
    from layers import COUNT_METRICS, TIME_METRICS

    wall = metrics["traced_wall_s"]
    rows = sorted(((metrics[m], m) for m in TIME_METRICS.values()
                   if metrics[m]), reverse=True)
    rows.append((metrics["unattributed_s"], "unattributed_s"))
    print(f"{'layer (CPU self time)':<28}{'seconds':>10}{'share':>8}")
    for value, name in rows:
        print(f"{name:<28}{value:>10.4f}{value / wall:>8.1%}")
    print(f"{'traced wall':<28}{wall:>10.4f}{1:>8.1%}")
    print("work counts: " + ", ".join(
        f"{name} {metrics[name]}" for name in COUNT_METRICS if metrics[name]))
    print(f"trace_overhead_frac {metrics['trace_overhead_frac']:.4f}")


def save_spans(tracer, traced: list, workload: str) -> Path:
    import numpy as np

    from spans import SPAN_COLUMNS

    rows = np.vstack([np.column_stack([np.full(len(p.spans), float(i)),
                                       p.spans])
                      for i, p in enumerate(traced)])
    path = OUT_DIR / f"spans-{workload}.npz"
    np.savez(path, spans=rows, columns=np.array(("pass",) + SPAN_COLUMNS),
             layers=np.array(tracer.layers))
    return path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    placement = f"{args.placement} (cpu {pin_to_one_cpu()})"
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    import_s = perf_counter() - t0

    import hostspeed
    import_s = hostspeed.to_reference(import_s, hostspeed.probe())

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setups.append(hostspeed.timed(workload.prepare)[2])
    setup_s = import_s + statistics.median(setups)

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = measure(workload.run_pass, seconds)
    traced = []
    if args.trace:
        from layers import METRIC_UNITS, instrument
        from spans import SpanTracer

        tracer = SpanTracer()
        instrument(tracer)
        try:
            traced = measure(partial(traced_pass, workload, tracer), seconds)
        finally:
            tracer.uninstall()
    attempted, failed, problems = verify(workload, plain + traced)

    print(f"workload {workload.name}, seed {args.seed}, placement "
          f"{placement}, {len(workload.units)} units per pass")
    for text in problems:
        print(f"FAILED {text}")
    print(f"failed {failed} of {attempted} (failed_frac "
          f"{failed / attempted:.4f})")
    if args.trace:
        metrics = layer_metrics(tracer, plain, traced)
        units = METRIC_UNITS
        print_layer_table(metrics)
        print(f"spans written to {save_spans(tracer, traced, workload.name)}")
    else:
        metrics = end_to_end(plain, setup_s)
        units = END_TO_END_UNITS
        print(f"setup_s {setup_s:.4f}: imports {import_s:.4f} + median of "
              + ", ".join(f"{s:.4f}" for s in setups))
        walls = [p.wall_s for p in plain]
        print(f"pass_s {metrics['pass_s']:.4f} reference s; raw wall "
              f"median {statistics.median(walls):.4f} s, "
              f"{percentile_text(walls)}; passes "
              + " ".join(f"{w:.3f}" for w in walls))
        print(f"records_per_s {metrics['records_per_s']:.1f}, peak_rss_mb "
              f"{metrics['peak_rss_mb']:.1f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
