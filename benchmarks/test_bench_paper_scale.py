"""Bench: the paper's per-configuration results hold at 256 ranks.

The paper traced its applications at 64-1024 ranks.  Tier-1 checks every
configuration against its Table 3 and Table 4 row at 8 and 64 ranks
(``tests/apps/test_apps_integration.py``); this runs the whole study at
256 ranks — about 20 s on a 2-vCPU host, too slow for tier-1 — and holds
every cell to the same row.  The check-mark patterns cannot see a
truncated count, so each cell's object-conflict count is also held to
the rank-by-rank object oracle of ``tests/core/reference.py``.
"""

import pytest

from repro.apps.registry import all_variants
from repro.study.runner import StudyResults, cell_summary, run_study
from tests.apps.expectations import assert_matches_paper
from tests.core.reference import object_conflict_pairs

NRANKS = 256
SEED = 7
LABELS = sorted(v.label for v in all_variants())


@pytest.fixture(scope="module")
def study256() -> StudyResults:
    return run_study(nranks=NRANKS, seed=SEED)


@pytest.mark.parametrize("label", LABELS)
def test_variant_matches_paper_at_256_ranks(study256, label):
    assert_matches_paper(study256, label)


@pytest.mark.parametrize("label", LABELS)
def test_object_count_matches_the_oracle_at_256_ranks(study256, label):
    run = study256.find(label)
    vis = run.report.visibility
    expected = sum(len(object_conflict_pairs(table, vis)[0])
                   for table in run.report.tables.values())
    cell = cell_summary(run.variant, run.trace, seed=SEED)
    assert cell["conflicts"]["object"]["count"] == expected
