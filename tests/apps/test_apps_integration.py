"""The headline integration tests: every configuration reproduces its
paper row (Table 3 cell + Table 4 conflict marks), and the results are
deterministic and scale-stable."""

import pytest

from repro.apps.registry import all_variants
from repro.core.report import analyze
from repro.core.semantics import Semantics
from tests.apps.expectations import assert_matches_paper

VARIANTS = {v.label: v for v in all_variants()}


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_variant_matches_paper(study8, label):
    """Per-configuration: session conflicts, commit behaviour, X-Y cell,
    and Table 3 pattern column all match the paper."""
    assert_matches_paper(study8, label)


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_variant_matches_paper_at_64_ranks(study64, label):
    """The same at 64 ranks, the smallest scale the paper traced."""
    assert_matches_paper(study64, label)


def test_all_but_flash_tolerate_weak_semantics(study8):
    """The abstract's headline: every application except FLASH runs
    correctly under session semantics (S conflicts handled locally)."""
    needs_strong_or_commit = set()
    for run in study8:
        session = run.report.conflicts(Semantics.SESSION)
        if session.cross_process_only:
            needs_strong_or_commit.add(run.variant.application)
    assert needs_strong_or_commit == {"FLASH"}


def test_flash_weakest_sufficient_is_commit(study8):
    report = study8.find("FLASH-HDF5 fbs").report
    assert report.weakest_sufficient_semantics() is Semantics.COMMIT


def test_clean_apps_compatible_with_all_filesystems(study8):
    report = study8.find("HACC-IO-POSIX").report
    names = {f.name for f in report.compatible_filesystems()}
    assert "PLFS" in names and "NFS" in names and "BurstFS" in names


def test_waw_s_apps_excluded_from_burstfs(study8):
    report = study8.find("LAMMPS-NetCDF").report
    names = {f.name for f in report.compatible_filesystems()}
    assert "BurstFS" not in names
    assert "UnifyFS" in names and "NFS" in names


def test_determinism_same_seed(variant_by_label):
    v = variant_by_label["NWChem-POSIX"]
    t1 = v.run(nranks=4, seed=21)
    t2 = v.run(nranks=4, seed=21)
    sig1 = [(r.rank, r.func, round(r.tstart, 12)) for r in t1.records]
    sig2 = [(r.rank, r.func, round(r.tstart, 12)) for r in t2.records]
    assert sig1 == sig2


def test_conflict_pattern_scale_independent(variant_by_label):
    """§6.1: conflict patterns do not depend on run scale (>= 4 ranks)."""
    for label in ("FLASH-HDF5 fbs", "LAMMPS-ADIOS", "pF3D-IO-POSIX"):
        v = variant_by_label[label]
        flags_by_scale = []
        for nranks in (4, 16):
            report = analyze(v.run(nranks=nranks))
            flags_by_scale.append(
                frozenset(k for k, f in report.conflicts(
                    Semantics.SESSION).flags.items() if f))
        assert flags_by_scale[0] == flags_by_scale[1], label


def test_race_freedom_of_all_conflicting_configs(study8):
    """§5.2's validation, applied to every conflicted configuration:
    all conflicting access pairs are properly synchronized and
    timestamp order matches the happens-before order."""
    for run in study8:
        if not run.variant.expected_conflicts:
            continue
        validation = run.report.validate(Semantics.SESSION)
        assert validation.race_free, run.label
        assert validation.timestamps_trustworthy, run.label


def test_clock_skew_does_not_change_conflicts(variant_by_label):
    """Skews far below the inter-operation gap leave results intact."""
    v = variant_by_label["FLASH-HDF5 fbs"]
    base = analyze(v.run(nranks=8, clock_skew_us=0.0))
    skewed = analyze(v.run(nranks=8, clock_skew_us=15.0))
    assert base.conflicts(Semantics.SESSION).flags == \
        skewed.conflicts(Semantics.SESSION).flags


def test_offset_reconstruction_exact_for_all_apps(study8):
    """Every resolved offset equals the simulator's ground truth, for
    every configuration (the §5.1 algorithm is exact)."""
    for run in study8:
        gt = {r.rid: r.gt_offset for r in run.trace.posix_data_records
              if r.gt_offset is not None}
        for acc in run.report.accesses:
            if acc.rid in gt:
                assert acc.offset == gt[acc.rid], \
                    f"{run.label}: rid {acc.rid}"


def test_lbann_local_consecutive_global_random(study8):
    """Figure 1's LBANN contrast."""
    report = study8.find("LBANN-POSIX").report
    assert report.local_mix.fraction("consecutive") == 1.0
    assert report.global_mix.fraction("random") > 0.5


def test_flash_nofbs_global_more_random_than_most(study8):
    nofbs = study8.find("FLASH-HDF5 nofbs").report
    posix_only = study8.find("LAMMPS-POSIX").report
    assert nofbs.global_mix.fraction("random") > 0.15
    assert posix_only.global_mix.fraction("random") == 0.0


def test_metadata_small_subset(study8):
    """§6.4: each configuration uses only a small subset of the
    monitored metadata surface, and rename/chown/utime are unused."""
    from repro.core.metadata import unused_operations
    for run in study8:
        usage = run.report.metadata
        assert len(usage.op_names) <= 10, run.label
        unused = set(unused_operations(usage))
        assert {"rename", "chown", "utime"} <= unused, run.label


def test_hdf5_apps_add_stat_ops(study8):
    """Figure 3: ParaDiS-HDF5 adds lstat/fstat/ftruncate over POSIX."""
    hdf5 = study8.find("ParaDiS-HDF5").report.metadata
    posix = study8.find("ParaDiS-POSIX").report.metadata
    extra = set(hdf5.op_names) - set(posix.op_names)
    assert {"lstat", "fstat", "ftruncate"} <= extra


def test_libraries_add_metadata_ops_to_lammps(study8):
    """Figure 3: LAMMPS via I/O libraries uses more metadata ops."""
    posix_ops = set(study8.find("LAMMPS-POSIX").report.metadata.op_names)
    adios_ops = set(study8.find("LAMMPS-ADIOS").report.metadata.op_names)
    assert {"getcwd", "unlink"} <= adios_ops - posix_ops
