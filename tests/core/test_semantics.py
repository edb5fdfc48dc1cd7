"""Tests for the consistency lattice, Table 1 registry, and verdicts."""

import pytest

from repro.core.conflicts import Conflict, ConflictKind, ConflictScope
from repro.core.records import AccessRecord
from repro.core.semantics import (
    PFS_REGISTRY,
    Semantics,
    compatible_filesystems,
    conflicts_matter,
    find_filesystem,
    registry_by_semantics,
    weakest_sufficient_semantics,
)
from tests.core.reference import array_conflict_set


def make_conflict(scope, kind=ConflictKind.WAW):
    a = AccessRecord(rid=0, rank=0, path="/f", offset=0, stop=4,
                     is_write=True, tstart=0.0, tend=0.1)
    b = AccessRecord(rid=1, rank=0 if scope is ConflictScope.SAME else 1,
                     path="/f", offset=0, stop=4,
                     is_write=kind is ConflictKind.WAW,
                     tstart=1.0, tend=1.1)
    return Conflict(path="/f", kind=kind, scope=scope, first=a, second=b)


def cs(semantics, *conflicts):
    return array_conflict_set(semantics, list(conflicts))


class TestLattice:
    def test_strength_order(self):
        assert Semantics.STRONG > Semantics.COMMIT > Semantics.SESSION \
            > Semantics.EVENTUAL
        assert Semantics.COMMIT.at_least(Semantics.SESSION)
        assert not Semantics.SESSION.at_least(Semantics.COMMIT)
        assert Semantics.STRONG >= Semantics.STRONG

    def test_titles(self):
        assert Semantics.COMMIT.title == "Commit Consistency"


class TestRegistry:
    def test_table1_membership(self):
        grouping = registry_by_semantics()
        names = {s: set(ns) for s, ns in grouping.items()}
        assert names[Semantics.STRONG] == {
            "GPFS", "Lustre", "GekkoFS", "BeeGFS", "BatchFS", "OrangeFS"}
        assert names[Semantics.COMMIT] == {
            "BSCFS", "UnifyFS", "SymphonyFS", "BurstFS"}
        assert names[Semantics.SESSION] == {
            "NFS", "AFS", "DDN IME", "Gfarm/BB"}
        assert names[Semantics.EVENTUAL] == {"PLFS", "echofs", "MarFS"}

    def test_same_process_ordering_exceptions(self):
        """§3.5: BurstFS (and PLFS/PVFS2 lineage) don't order own writes."""
        assert not find_filesystem("BurstFS").same_process_ordering
        assert not find_filesystem("PLFS").same_process_ordering
        assert not find_filesystem("OrangeFS").same_process_ordering
        assert find_filesystem("UnifyFS").same_process_ordering

    def test_find_filesystem_case_insensitive(self):
        assert find_filesystem("lustre").name == "Lustre"
        with pytest.raises(KeyError):
            find_filesystem("NotAFS")


class TestVerdicts:
    def test_clean_app_tolerates_eventual(self):
        by_model = {s: cs(s) for s in (Semantics.EVENTUAL,
                                       Semantics.SESSION,
                                       Semantics.COMMIT)}
        assert weakest_sufficient_semantics(by_model) is Semantics.EVENTUAL

    def test_s_conflicts_ignored_with_ordering(self):
        by_model = {
            Semantics.EVENTUAL: cs(Semantics.EVENTUAL,
                                   make_conflict(ConflictScope.SAME)),
            Semantics.SESSION: cs(Semantics.SESSION,
                                  make_conflict(ConflictScope.SAME)),
            Semantics.COMMIT: cs(Semantics.COMMIT),
        }
        assert weakest_sufficient_semantics(by_model) is Semantics.EVENTUAL
        assert weakest_sufficient_semantics(
            by_model, same_process_ordering=False) is Semantics.COMMIT

    def test_d_conflict_forces_stronger_model(self):
        by_model = {
            Semantics.EVENTUAL: cs(Semantics.EVENTUAL,
                                   make_conflict(ConflictScope.DIFFERENT)),
            Semantics.SESSION: cs(Semantics.SESSION,
                                  make_conflict(ConflictScope.DIFFERENT)),
            Semantics.COMMIT: cs(Semantics.COMMIT),
        }
        assert weakest_sufficient_semantics(by_model) is Semantics.COMMIT

    def test_all_models_conflicted_needs_strong(self):
        by_model = {
            s: cs(s, make_conflict(ConflictScope.DIFFERENT))
            for s in (Semantics.EVENTUAL, Semantics.SESSION,
                      Semantics.COMMIT)
        }
        assert weakest_sufficient_semantics(by_model) is Semantics.STRONG

    def test_conflicts_matter(self):
        only_s = cs(Semantics.SESSION, make_conflict(ConflictScope.SAME))
        assert not conflicts_matter(only_s)
        assert conflicts_matter(only_s, same_process_ordering=False)


class TestCompatibleFilesystems:
    def test_clean_app_runs_everywhere(self):
        by_model = {s: cs(s) for s in (Semantics.EVENTUAL,
                                       Semantics.SESSION,
                                       Semantics.COMMIT)}
        names = {f.name for f in compatible_filesystems(by_model)}
        assert names == {f.name for f in PFS_REGISTRY}

    def test_flash_like_profile(self):
        """Session D conflicts, commit clean: session FSs excluded."""
        by_model = {
            Semantics.EVENTUAL: cs(
                Semantics.EVENTUAL, make_conflict(ConflictScope.DIFFERENT)),
            Semantics.SESSION: cs(
                Semantics.SESSION, make_conflict(ConflictScope.DIFFERENT)),
            Semantics.COMMIT: cs(Semantics.COMMIT),
        }
        names = {f.name for f in compatible_filesystems(by_model)}
        assert "UnifyFS" in names and "Lustre" in names
        assert "NFS" not in names and "PLFS" not in names

    def test_waw_s_profile_excludes_burstfs(self):
        """Apps with S conflicts run on UnifyFS but not BurstFS (§6.3)."""
        by_model = {
            s: cs(s, make_conflict(ConflictScope.SAME))
            for s in (Semantics.EVENTUAL, Semantics.SESSION,
                      Semantics.COMMIT)
        }
        names = {f.name for f in compatible_filesystems(by_model)}
        assert "UnifyFS" in names
        assert "BurstFS" not in names
        assert "PLFS" not in names
