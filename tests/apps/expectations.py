"""The paper's per-configuration results, as one assertion over a study."""

from repro.core.semantics import Semantics
from repro.study.runner import StudyResults


def assert_matches_paper(study: StudyResults, label: str) -> None:
    """Configuration ``label`` of ``study`` reproduces its paper row:
    the Table 4 session conflicts, the commit behaviour (§6.3: FLASH is
    clean under commit semantics, every other conflict stays), and the
    Table 3 X-Y cell and pattern."""
    run = study.find(label)
    variant = run.variant
    report = run.report

    session = report.conflicts(Semantics.SESSION)
    got = {k for k, f in session.flags.items() if f}
    assert got == set(variant.expected_conflicts), \
        f"{label}: session conflicts {got}"

    commit = report.conflicts(Semantics.COMMIT)
    commit_got = {k for k, f in commit.flags.items() if f}
    if variant.commit_clean:
        assert not commit_got, f"{label}: expected commit-clean"
    else:
        assert commit_got == set(variant.expected_conflicts), \
            f"{label}: commit conflicts changed"

    primary = report.sharing[0]
    assert primary.xy(study.nranks) == variant.expected_xy, label
    assert str(primary.pattern) == variant.expected_pattern, label
