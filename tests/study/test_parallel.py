"""Determinism contract of the parallel matrix engine + result cache.

The hard requirement: for the same cells and seeds, serial, pooled, and
cache-served evaluations produce byte-identical JSON.  These tests pin
that on a small variant subset so tier-1 stays fast; the benchmarks
exercise the full matrix.
"""

import pytest

from repro.apps.registry import all_variants
from repro.pfs.chaos import ChaosCell, run_chaos, variant_cells
from repro.study.cache import FINGERPRINT_SALT_ENV, ResultCache
from repro.study.parallel import (
    CellSpec,
    chaos_variant_task,
    resolve_jobs,
    run_matrix,
    study_cell_task,
)
from repro.study.runner import matrix_json, run_study, study_cells

#: a small, shape-diverse slice of the registry (POSIX, HDF5, ADIOS)
SUBSET = all_variants()[:3]
NRANKS = 4
SEED = 7


def _double(task):
    """Module-level (hence picklable) toy worker for ordering tests."""
    value, = task
    return {"label": f"cell{value}", "value": value * 2}


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_none_means_per_cpu(self):
        assert resolve_jobs(None) >= 1


class TestRunMatrixOrdering:
    def test_results_preserve_submission_order(self):
        cells = [CellSpec(key_fields={"i": i}, task=(i,))
                 for i in range(8)]
        run = run_matrix("toy", cells, _double, jobs=4)
        assert [o.payload["value"] for o in run.outcomes] == \
            [2 * i for i in range(8)]
        assert [o.index for o in run.outcomes] == list(range(8))
        assert run.computed == 8 and run.cached == 0

    def test_serial_and_pooled_payloads_identical(self):
        cells = [CellSpec(key_fields={"i": i}, task=(i,))
                 for i in range(6)]
        serial = run_matrix("toy", cells, _double, jobs=1)
        pooled = run_matrix("toy", cells, _double, jobs=3)
        assert serial.payloads == pooled.payloads


class TestStudyDeterminism:
    def test_parallel_matrix_json_byte_identical(self):
        serial = study_cells(nranks=NRANKS, seed=SEED, variants=SUBSET,
                             jobs=1)
        pooled = study_cells(nranks=NRANKS, seed=SEED, variants=SUBSET,
                             jobs=2)
        a = matrix_json(serial.payloads, nranks=NRANKS, seed=SEED)
        b = matrix_json(pooled.payloads, nranks=NRANKS, seed=SEED)
        assert a == b

    def test_cached_rerun_byte_identical(self, tmp_path):
        cold = ResultCache(root=tmp_path)
        first = study_cells(nranks=NRANKS, seed=SEED, variants=SUBSET,
                            jobs=1, cache=cold)
        warm = ResultCache(root=tmp_path)
        second = study_cells(nranks=NRANKS, seed=SEED, variants=SUBSET,
                             jobs=1, cache=warm)
        assert first.computed == len(SUBSET)
        assert second.cached == len(SUBSET)
        assert matrix_json(first.payloads, nranks=NRANKS, seed=SEED) \
            == matrix_json(second.payloads, nranks=NRANKS, seed=SEED)

    def test_fingerprint_change_invalidates(self, tmp_path,
                                            monkeypatch):
        cache = ResultCache(root=tmp_path)
        study_cells(nranks=NRANKS, seed=SEED, variants=SUBSET[:1],
                    jobs=1, cache=cache)
        monkeypatch.setenv(FINGERPRINT_SALT_ENV, "code-changed")
        bumped = ResultCache(root=tmp_path)
        rerun = study_cells(nranks=NRANKS, seed=SEED,
                            variants=SUBSET[:1], jobs=1, cache=bumped)
        assert rerun.cached == 0 and rerun.computed == 1

    def test_cache_key_separates_parameters(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        study_cells(nranks=NRANKS, seed=SEED, variants=SUBSET[:1],
                    jobs=1, cache=cache)
        other_seed = study_cells(nranks=NRANKS, seed=SEED + 1,
                                 variants=SUBSET[:1], jobs=1,
                                 cache=cache)
        other_ranks = study_cells(nranks=NRANKS + 4, seed=SEED,
                                  variants=SUBSET[:1], jobs=1,
                                  cache=cache)
        assert other_seed.cached == 0
        assert other_ranks.cached == 0

    def test_run_study_pooled_traces_identical(self, tmp_path):
        serial = run_study(nranks=NRANKS, seed=SEED, variants=SUBSET)
        pooled = run_study(nranks=NRANKS, seed=SEED, variants=SUBSET,
                           jobs=2)
        for a, b in zip(serial, pooled):
            assert a.label == b.label
            pa = tmp_path / "serial.jsonl"
            pb = tmp_path / "pooled.jsonl"
            a.trace.to_jsonl(pa)
            b.trace.to_jsonl(pb)
            assert pa.read_bytes() == pb.read_bytes()

    def test_study_cell_task_matches_direct_summary(self):
        from repro.study.runner import cell_summary

        variant = SUBSET[0]
        assert study_cell_task((variant, NRANKS, SEED)) == \
            cell_summary(variant, nranks=NRANKS, seed=SEED)


class TestChaosDeterminism:
    PLANS = ("fault-free", "ost-crash")
    SEMS = ("commit", "session", "object")

    def test_task_matches_serial_cells(self):
        variant = SUBSET[0]
        from repro.core.semantics import Semantics
        from repro.pfs.chaos import CHAOS_STRIPE_SIZE, \
            default_fault_plans

        wanted = set(self.PLANS)
        plans = [p for p in default_fault_plans(SEED)
                 if p.name in wanted]
        direct = variant_cells(
            variant, nranks=2, seed=SEED, plans=plans,
            semantics=tuple(Semantics[s.upper()] for s in self.SEMS))
        payload = chaos_variant_task(
            (variant, 2, SEED, self.PLANS, self.SEMS,
             CHAOS_STRIPE_SIZE))
        assert payload["cells"] == [c.to_dict() for c in direct]

    def test_pooled_report_byte_identical_to_serial(self):
        from repro.pfs.chaos import CHAOS_STRIPE_SIZE, ChaosReport

        variants = SUBSET[:2]
        serial = run_chaos(variants, nranks=2, seed=SEED)
        plan_names = serial.plans
        run = run_matrix(
            "chaos-variant",
            [CellSpec(key_fields={"label": v.label, "nranks": 2,
                                  "seed": SEED,
                                  "plans": list(plan_names),
                                  "semantics": list(self.SEMS),
                                  "stripe": CHAOS_STRIPE_SIZE},
                      task=(v, 2, SEED, tuple(plan_names), self.SEMS,
                            CHAOS_STRIPE_SIZE))
             for v in variants],
            chaos_variant_task, jobs=2)
        rebuilt = ChaosReport(nranks=2, seed=SEED,
                              plans=list(plan_names))
        for payload in run.payloads:
            rebuilt.cells.extend(ChaosCell.from_dict(d)
                                 for d in payload["cells"])
        assert rebuilt.to_json() == serial.to_json()

    def test_chaos_cell_dict_roundtrip(self):
        cells = variant_cells(SUBSET[0], nranks=2, seed=SEED)
        for cell in cells:
            clone = ChaosCell.from_dict(cell.to_dict())
            assert clone.to_dict() == cell.to_dict()
            assert clone.ok == cell.ok


class TestWorkflowCell:
    def test_workflow_summary_deterministic(self):
        from repro.study.parallel import workflow_task

        a = workflow_task((4, 2, 3))
        b = workflow_task((4, 2, 3))
        assert a == b
        assert a["weakest_semantics"] == "session"


class TestVariantPicklability:
    def test_every_registry_variant_pickles(self):
        import pickle

        for variant in all_variants():
            clone = pickle.loads(pickle.dumps(variant))
            assert clone.label == variant.label
