"""The lint rules against the analyses they report.

The hazard rules L001/L002 render the run report's commit and session
conflict sets: every pair of each set must be flagged, and no other,
for every registered configuration.  L010 (data-at-risk-on-crash) is
held to an independent oracle, a fault-free replay of the trace on the
simulated PFS (:func:`durability_mismatches`).
"""

from repro.core.report import analyze
from repro.core.semantics import Semantics
from repro.lint import lint_trace, lint_variant
from repro.pfs.config import PFSConfig
from repro.pfs.replay import replay_trace

#: which lint rule answers for which semantics model
HAZARD_RULES = {Semantics.COMMIT: "commit-hazard",
                Semantics.SESSION: "session-hazard"}


def lint_hazard_pairs(report, semantics) -> set[tuple[int, int]]:
    """All (writer rid, second rid) pairs a hazard rule flagged."""
    return {(int(a), int(b))
            for diag in report.for_rule(HAZARD_RULES[semantics])
            for a, b in diag.data.get("pairs", ())}


def hazard_mismatches(trace, report, label: str) -> list[str]:
    """Pairs the report's conflict sets hold but the hazard rules do
    not flag, and the other way round."""
    out = []
    for semantics, rule in HAZARD_RULES.items():
        oracle = {(c.first.rid, c.second.rid)
                  for c in analyze(trace).conflicts(semantics)}
        flagged = lint_hazard_pairs(report, semantics)
        name = semantics.name.lower()
        out += [f"{label}: {name} conflict pair rid{pair} not flagged by "
                f"{rule}" for pair in sorted(oracle - flagged)]
        out += [f"{label}: {rule} flagged pair rid{pair}, which is no "
                f"{name} conflict" for pair in sorted(flagged - oracle)]
    return out


def durability_mismatches(trace, label: str) -> tuple[list[str], int]:
    """L010 against fault-free replay, exact in both directions at
    (rank, path) granularity.

    The oracle is :meth:`FileStore.unpublished_extents` after a full
    replay: a (rank, path) stream holds unpublished bytes at
    end-of-trace exactly when a crash there would lose data.  Under
    commit semantics both fsync and close publish, so the oracle must
    match L010's WARNING tier ("uncommitted"); under session semantics
    only close publishes, so it must match WARNING ∪ INFO ("unclosed").
    Returns the mismatches and the number of unpublished streams the
    replays found.
    """
    report = lint_trace(trace, label=label)
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
    mismatches, checked = [], 0
    for semantics, predicted in oracles:
        sim = replay_trace(trace, PFSConfig(semantics=semantics)).simulator
        unpublished = {(e.writer, path)
                       for path, store in sim.files.items()
                       for e in store.unpublished_extents()}
        checked += len(unpublished)
        name = semantics.name.lower()
        mismatches += [
            f"{label}: rank {rank} leaves unpublished bytes in {path} "
            f"under {name} replay but L010 did not flag the stream"
            for rank, path in sorted(unpublished - predicted)]
        mismatches += [
            f"{label}: L010 flagged rank {rank} on {path} but {name} "
            f"replay shows no unpublished bytes"
            for rank, path in sorted(predicted - unpublished)]
    return mismatches, checked


class TestCrossValidation:
    def test_zero_false_negatives_across_the_study(self, study8):
        failures = []
        checked = 0
        for run in study8:
            report = lint_trace(run.trace, label=run.label)
            failures += hazard_mismatches(run.trace, report, run.label)
            checked += sum(len(run.report.conflicts(s))
                           for s in HAZARD_RULES)
        assert not failures, "\n".join(failures[:20])
        assert checked > 0, "study produced no conflict pairs at all"

    def test_lint_pairs_match_report_conflicts(self, study8):
        run = study8.find("FLASH-HDF5 fbs")
        report = lint_trace(run.trace, label=run.label)
        for semantics in (Semantics.COMMIT, Semantics.SESSION):
            oracle = {(c.first.rid, c.second.rid)
                      for c in run.report.conflicts(semantics)}
            assert oracle <= lint_hazard_pairs(report, semantics)

    def test_commit_pairs_subset_of_session_pairs(self, study8):
        # §5.2: every commit conflict is also a session conflict, so
        # the lint rules must preserve the containment
        for run in study8:
            report = lint_trace(run.trace, label=run.label)
            commit = lint_hazard_pairs(report, Semantics.COMMIT)
            session = lint_hazard_pairs(report, Semantics.SESSION)
            assert commit <= session, run.label


class TestFlashVariants:
    def test_flash_with_flush_has_session_errors(self, flash_reports):
        _, trace, _ = flash_reports["FLASH-HDF5 fbs"]
        report = lint_trace(trace, label="FLASH-HDF5 fbs")
        assert report.for_rule("session-hazard")
        assert report.exit_code == 1

    def test_flash_without_flush_lints_clean_under_session(
            self, variant_by_label):
        # the acceptance scenario: dropping the per-dataset H5Fflush
        # (the paper's one-line fix) removes the shared-metadata
        # rewrites, so session (and commit) semantics suffice and the
        # hazard rules stay silent
        variant = variant_by_label["FLASH-HDF5 fbs"]
        report = lint_variant(variant, nranks=8,
                              flush_between_datasets=False)
        assert not report.for_rule("session-hazard")
        assert not report.for_rule("commit-hazard")
        assert not report.errors

    def test_crossval_ok_for_both_flash_variants(self, flash_reports):
        for label, (_, trace, _) in flash_reports.items():
            report = lint_trace(trace, label=label)
            mismatches = hazard_mismatches(trace, report, label)
            assert not mismatches, mismatches[:5]


class TestDurabilityCrossValidation:
    """L010 vs fault-free replay: the (rank, path) streams holding
    unpublished bytes at end-of-trace must match the rule exactly —
    WARNING tier under commit replay (fsync or close publishes),
    WARNING ∪ INFO under session replay (only close publishes)."""

    def test_exact_in_both_directions_across_the_study(self, study8):
        failures = []
        for run in study8:
            failures += durability_mismatches(run.trace, run.label)[0]
        assert not failures, "\n".join(failures[:20])

    def test_synthetic_risky_program_round_trips(self, run_traced):
        from repro.posix import flags as F

        def program(ctx):
            fd = ctx.posix.open("/risk.dat", F.O_CREAT | F.O_WRONLY)
            ctx.posix.pwrite(fd, 64, 64 * ctx.rank)
            if ctx.rank == 0:
                ctx.posix.close(fd)       # rank 0 publishes
            elif ctx.rank == 1:
                ctx.posix.fsync(fd)       # committed, never closed

        trace, _ = run_traced(program, nranks=3)
        mismatches, checked = durability_mismatches(trace, "synthetic")
        assert not mismatches
        # rank 2 risky under both models, rank 1 under session only
        assert checked == 3
