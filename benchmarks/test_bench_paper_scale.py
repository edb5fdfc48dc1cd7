"""Bench: the paper's per-configuration results hold at 256 ranks.

The paper traced its applications at 64-1024 ranks.  Tier-1 checks every
configuration against its Table 3 and Table 4 row at 8 and 64 ranks
(``tests/apps/test_apps_integration.py``); this runs the whole study at
256 ranks — about 20 s on a 2-vCPU host, too slow for tier-1 — and holds
every cell to the same row.
"""

import pytest

from repro.apps.registry import all_variants
from repro.study.runner import StudyResults, run_study
from tests.apps.expectations import assert_matches_paper

NRANKS = 256
LABELS = sorted(v.label for v in all_variants())


@pytest.fixture(scope="module")
def study256() -> StudyResults:
    return run_study(nranks=NRANKS, seed=7)


@pytest.mark.parametrize("label", LABELS)
def test_variant_matches_paper_at_256_ranks(study256, label):
    assert_matches_paper(study256, label)
