"""Performance bench: static lint vs full PFS replay.

The linter's pitch is answering the Table 4 question ("is this app safe
under commit/session semantics?") without executing the workload on a
simulated PFS.  This bench times both answers on the study's largest
traces and writes the comparison to ``benchmarks/output/
lint_scaling.txt``.  Assertions stick to *shape* (the hazard rules
flag exactly the run report's conflict pairs) — wall-clock ratios vary
by machine and are reported, not asserted.
"""

import time

from benchmarks.conftest import save_artifact

from repro.core.semantics import Semantics
from repro.lint import lint_trace
from repro.pfs.config import PFSConfig
from repro.pfs.replay import replay_trace

#: the traces worth timing: most records / the conflict-heavy flagship
BENCH_LABELS = ("FLASH-HDF5 fbs", "FLASH-HDF5 nofbs", "LBANN-POSIX")

#: which lint rule answers for which semantics model
HAZARD_RULES = {Semantics.COMMIT: "commit-hazard",
                Semantics.SESSION: "session-hazard"}


def _largest_runs(study8, k=3):
    runs = sorted(study8, key=lambda r: -len(r.trace.records))
    picked = {r.label: r for r in runs[:k]}
    for label in BENCH_LABELS:
        try:
            picked[label] = study8.find(label)
        except KeyError:
            pass
    return sorted(picked.values(), key=lambda r: -len(r.trace.records))


def test_bench_lint_flash(benchmark, study8):
    run = study8.find("FLASH-HDF5 fbs")
    report = benchmark(lint_trace, run.trace)
    assert report.for_rule("session-hazard")


def test_bench_replay_flash(benchmark, study8):
    run = study8.find("FLASH-HDF5 fbs")
    result = benchmark(
        replay_trace, run.trace,
        PFSConfig(semantics=Semantics.SESSION))
    assert result is not None


def test_bench_lint_vs_replay_artifact(study8, artifacts):
    """Time both pipelines over the biggest traces; render the table."""
    lines = [
        "lint vs replay: wall time to a semantics verdict",
        "(one process, shared per-trace artifacts cold each time)",
        "",
        f"{'configuration':28s} {'records':>8s} {'lint[s]':>9s} "
        f"{'replay[s]':>10s} {'ratio':>7s}  verdict",
    ]
    for run in _largest_runs(study8):
        t0 = time.perf_counter()
        report = lint_trace(run.trace, label=run.label)
        t_lint = time.perf_counter() - t0

        t0 = time.perf_counter()
        for semantics in (Semantics.COMMIT, Semantics.SESSION):
            replay_trace(run.trace, PFSConfig(semantics=semantics))
        t_replay = time.perf_counter() - t0

        # the hazard rules flag exactly the report's conflict pairs
        for semantics, rule in HAZARD_RULES.items():
            flagged = {tuple(pair) for diag in report.for_rule(rule)
                       for pair in diag.data["pairs"]}
            assert flagged == {(c.first.rid, c.second.rid) for c in
                               run.report.conflicts(semantics)}, rule
        hazardous = any(report.for_rule(rule)
                        for rule in HAZARD_RULES.values())
        verdict = "hazardous" if hazardous else "clean"
        ratio = t_replay / t_lint if t_lint > 0 else float("inf")
        lines.append(
            f"{run.label:28s} {len(run.trace.records):8d} "
            f"{t_lint:9.3f} {t_replay:10.3f} {ratio:6.1f}x  {verdict}")
    lines += [
        "",
        "replay column = one COMMIT + one SESSION execution (the two",
        "models Table 4 distinguishes); lint answers both from one pass.",
    ]
    text = "\n".join(lines)
    save_artifact(artifacts, "lint_scaling.txt", text)
    assert "FLASH-HDF5 fbs" in text
