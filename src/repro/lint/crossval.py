"""Cross-validation harness: the linter vs the replay-based pipeline.

The linter's correctness contract is *zero false negatives* against the
Table 4 verdicts of :mod:`repro.core.conflicts`: every commit- and
session-semantics conflict the replay-based pipeline reports must also
be flagged by the corresponding lint rule (L001/L002), at the level of
individual (writer rid, second rid) pairs.  False positives are allowed
in principle (a static analysis may over-approximate) but today the
hazard rules reuse the exact §5.2 conditions, so the comparison is
expected to be pair-exact — which this harness also verifies and
reports as informational "extras".

Used by the tier-1 cross-validation tests over all registry apps and
exposed for ad-hoc use::

    from repro.lint.crossval import crossvalidate_trace
    mismatches = crossvalidate_trace(trace)
    assert not mismatches
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.lint.diagnostics import LintReport
from repro.lint.runner import lint_trace
from repro.tracer.trace import Trace

#: which lint rule answers for which semantics model
HAZARD_RULE_OF = {
    Semantics.COMMIT: "commit-hazard",
    Semantics.SESSION: "session-hazard",
}


@dataclass
class CrossValidation:
    """Outcome of one trace's lint-vs-replay comparison."""

    label: str
    #: replay-pipeline pairs the linter missed (must stay empty)
    false_negatives: list[str] = field(default_factory=list)
    #: linter pairs the capped replay pipeline did not report
    extras: list[str] = field(default_factory=list)
    checked_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.false_negatives

    def to_dict(self) -> dict:
        return {"label": self.label,
                "checked_pairs": self.checked_pairs,
                "false_negatives": list(self.false_negatives),
                "extras": list(self.extras),
                "ok": self.ok}


def lint_hazard_pairs(report: LintReport,
                      semantics: Semantics) -> set[tuple[int, int]]:
    """All (writer rid, second rid) pairs a hazard rule flagged."""
    rule = HAZARD_RULE_OF[semantics]
    out: set[tuple[int, int]] = set()
    for diag in report.for_rule(rule):
        for pair in diag.data.get("pairs", ()):
            out.add((int(pair[0]), int(pair[1])))
    return out


def crossvalidate_trace(trace: Trace, report: LintReport | None = None,
                        *, label: str | None = None,
                        max_conflicts_per_file: int | None = 10_000,
                        ) -> CrossValidation:
    """Compare one trace's lint verdicts against the §5.2 detector.

    ``max_conflicts_per_file`` mirrors the default cap used by the
    Table 4 report pipeline; the linter itself is uncapped, so the
    superset requirement must hold regardless of the cap.
    """
    if report is None:
        report = lint_trace(trace, label=label)
    run = analyze(trace)
    result = CrossValidation(label=label or report.label)
    for semantics, rule in sorted(HAZARD_RULE_OF.items(),
                                  key=lambda kv: kv[0].value):
        oracle = run.conflicts(semantics, max_conflicts_per_file)
        flagged = lint_hazard_pairs(report, semantics)
        oracle_pairs = {(c.first.rid, c.second.rid) for c in oracle}
        result.checked_pairs += len(oracle_pairs)
        for pair in sorted(oracle_pairs - flagged):
            result.false_negatives.append(
                f"{result.label}: {semantics.name.lower()} conflict "
                f"pair rid{pair} reported by the replay pipeline but "
                f"not flagged by {rule}")
        for pair in sorted(flagged - oracle_pairs):
            result.extras.append(
                f"{result.label}: {rule} flagged pair rid{pair} beyond "
                f"the (capped) replay pipeline")
    return result


def crossvalidate_durability(trace: Trace,
                             report: LintReport | None = None, *,
                             label: str | None = None
                             ) -> CrossValidation:
    """Validate L010 (data-at-risk-on-crash) against fault-free replay.

    The dynamic oracle is :meth:`FileStore.unpublished_extents` after a
    full replay: a (rank, path) stream holds unpublished bytes at
    end-of-trace exactly when a crash there would lose data.  Under
    commit semantics both fsync and close publish, so the oracle must
    match L010's WARNING tier ("uncommitted"); under session semantics
    only close publishes, so it must match WARNING ∪ INFO ("unclosed").
    The comparison is exact in both directions at (rank, path)
    granularity.
    """
    from repro.pfs.config import PFSConfig
    from repro.pfs.replay import replay_trace

    if report is None:
        report = lint_trace(trace, label=label)
    result = CrossValidation(label=label or report.label)
    flagged: dict[str, set[tuple[int, str]]] = {"uncommitted": set(),
                                                "unclosed": set()}
    for diag in report.for_rule("data-at-risk-on-crash"):
        if diag.kind in flagged and diag.path is not None:
            flagged[diag.kind].add((diag.ranks[0], diag.path))
    oracles = (
        (Semantics.COMMIT, flagged["uncommitted"]),
        (Semantics.SESSION,
         flagged["uncommitted"] | flagged["unclosed"]),
    )
    for semantics, predicted in oracles:
        replay = replay_trace(trace, PFSConfig(semantics=semantics))
        sim = replay.simulator
        assert sim is not None
        unpublished = {(e.writer, path)
                       for path, store in sim.files.items()
                       for e in store.unpublished_extents()}
        result.checked_pairs += len(unpublished)
        name = semantics.name.lower()
        for rank, path in sorted(unpublished - predicted):
            result.false_negatives.append(
                f"{result.label}: rank {rank} leaves unpublished bytes "
                f"in {path} under {name} replay but L010 did not flag "
                f"the stream")
        for rank, path in sorted(predicted - unpublished):
            result.extras.append(
                f"{result.label}: L010 flagged rank {rank} on {path} "
                f"but {name} replay shows no unpublished bytes")
    return result


def crossvalidate_variant(variant, *, nranks: int = 8,
                          seed: int = 7) -> dict:
    """One configuration's full lint-vs-replay cross-validation cell.

    Traces and lints the variant once, runs both the hazard comparison
    (:func:`crossvalidate_trace`) and the durability comparison
    (:func:`crossvalidate_durability`) against it, and returns a plain
    JSON document — the independently schedulable (and cacheable) unit
    the ``study crossvalidate`` matrix fans out.
    """
    trace = variant.run(nranks=nranks, seed=seed)
    report = lint_trace(trace, label=variant.label)
    hazards = crossvalidate_trace(trace, report, label=variant.label)
    durability = crossvalidate_durability(trace, report,
                                          label=variant.label)
    return {
        "label": variant.label,
        "nranks": nranks,
        "seed": seed,
        "hazards": hazards.to_dict(),
        "durability": durability.to_dict(),
        "ok": hazards.ok and durability.ok,
    }
