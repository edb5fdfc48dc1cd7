"""Chaos replay: every application run, under a fault-plan matrix.

The point of the harness is a *soundness* argument about the whole
pipeline, not just a stress test.  For each application configuration we
capture one trace, then replay it under each (fault plan, semantics)
cell and demand:

* the crash-consistency checker finds **no contract violation** —
  recovery never loses acknowledged/committed/durable data and never
  leaves a torn write visible (the plans here all model *correct*
  recovery; the deliberately broken modes live in tests);
* every final-content mismatch against the POSIX outcome is
  **attributable**: either the trace's §5.2 conflict analysis already
  predicted that file diverges under this semantics, or the mismatched
  byte ranges lie entirely inside regions an injected fault destroyed
  (plus any hazardous overlap regions).  Faults may add stale reads and
  failed ops, but they must never manufacture corruption the analysis
  cannot explain.

Reports are deterministic: one ``(trace seed, FaultPlan)`` pair produces
a byte-identical JSON report, which CI pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.semantics import Semantics
from repro.faults.plan import CacheDropEvent, CrashEvent, FaultPlan
from repro.pfs.config import PFSConfig
from repro.pfs.replay import ReplayResult, replay_trace
from repro.pfs.storage import FileStore
from repro.util.intervals import Interval, IntervalSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.registry import RunVariant

#: the semantics models worth crash-testing: strong has no deferred
#: visibility to lose, eventual promises almost nothing — commit,
#: session, and object carry the interesting durability contracts (§5;
#: under object the close is the PUT, and a completed PUT is durable).
CHAOS_SEMANTICS: tuple[Semantics, ...] = (Semantics.COMMIT,
                                          Semantics.SESSION,
                                          Semantics.OBJECT)


def default_fault_plans(seed: int = 0) -> list[FaultPlan]:
    """The standard chaos matrix: one plan per fault class.

    Op-count triggers (rather than virtual times) keep the crashes
    landing mid-I/O for every application regardless of its time scale;
    the thresholds sit below the op count of even the smallest
    registered run (14 POSIX ops at 4 ranks).  OST 0 is the target
    because files smaller than one stripe live entirely on it.
    """
    return [
        FaultPlan(name="fault-free", seed=seed),
        FaultPlan(name="ost-crash", seed=seed,
                  crashes=(CrashEvent("ost:0", at_op=8),)),
        FaultPlan(name="mds-crash", seed=seed,
                  crashes=(CrashEvent("mds", at_op=12),)),
        FaultPlan(name="cache-drop", seed=seed,
                  cache_drops=(CacheDropEvent(client=0, at_op=6),)),
        FaultPlan(name="flaky-servers", seed=seed,
                  error_rate=0.02, max_errors=64),
    ]


@dataclass
class ChaosCell:
    """One (application, fault plan, semantics) replay outcome."""

    label: str
    plan: str
    semantics: str
    stale_reads: int = 0
    failed_ops: int = 0
    retries: int = 0
    giveups: int = 0
    faults_fired: int = 0
    extents_rolled_back: int = 0
    corrupted: list[str] = field(default_factory=list)
    unattributed: list[str] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    #: acked-durable WAL ledger (:mod:`repro.faults.walcheck`) — only
    #: present for traces that describe a write-ahead-log run
    wal: dict | None = None

    @property
    def ok(self) -> bool:
        """Sound: recovery kept its contract, every mismatch is
        explained by a predicted conflict or an injected fault, and no
        acked WAL record was lost while the flush path was healthy."""
        return not self.violations and not self.unattributed \
            and (self.wal is None or not self.wal["lost"])

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosCell":
        """Inverse of :meth:`to_dict` (``ok`` is derived, not stored).

        Round-tripping through dicts is what lets the result cache and
        the process pool ship cells as plain JSON while the rebuilt
        :class:`ChaosReport` still serializes byte-identically.
        """
        return cls(
            label=d["label"], plan=d["plan"], semantics=d["semantics"],
            stale_reads=d["stale_reads"], failed_ops=d["failed_ops"],
            retries=d["retries"], giveups=d["giveups"],
            faults_fired=d["faults_fired"],
            extents_rolled_back=d["extents_rolled_back"],
            corrupted=list(d["corrupted"]),
            unattributed=list(d["unattributed"]),
            violations=[dict(v) for v in d["violations"]],
            wal=dict(d["wal"]) if d.get("wal") is not None else None)

    def to_dict(self) -> dict:
        doc = {
            "label": self.label, "plan": self.plan,
            "semantics": self.semantics,
            "stale_reads": self.stale_reads,
            "failed_ops": self.failed_ops,
            "retries": self.retries, "giveups": self.giveups,
            "faults_fired": self.faults_fired,
            "extents_rolled_back": self.extents_rolled_back,
            "corrupted": list(self.corrupted),
            "unattributed": list(self.unattributed),
            "violations": list(self.violations),
            "ok": self.ok,
        }
        if self.wal is not None:
            doc["wal"] = dict(self.wal)
        return doc


@dataclass
class ChaosReport:
    """The full matrix: every cell, plus run parameters for provenance."""

    nranks: int
    seed: int
    plans: list[str]
    cells: list[ChaosCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict:
        return {"nranks": self.nranks, "seed": self.seed,
                "plans": list(self.plans),
                "cells": [c.to_dict() for c in self.cells],
                "ok": self.ok}

    def to_json(self) -> str:
        """Canonical form: byte-identical for identical (seed, plans)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        hdr = (f"{'configuration':<22} {'plan':<14} {'model':<8} "
               f"{'stale':>5} {'fail':>4} {'retry':>5} {'rolled':>6} "
               f"{'viol':>4}  status")
        lines = [hdr, "-" * len(hdr)]
        for c in self.cells:
            status = "ok" if c.ok else (
                "UNATTRIBUTED" if c.unattributed else "VIOLATION")
            lines.append(
                f"{c.label:<22} {c.plan:<14} {c.semantics:<8} "
                f"{c.stale_reads:>5} {c.failed_ops:>4} {c.retries:>5} "
                f"{c.extents_rolled_back:>6} {len(c.violations):>4}  "
                f"{status}")
        bad = [c for c in self.cells if not c.ok]
        lines.append("")
        lines.append(
            f"{len(self.cells)} cells, {len(bad)} unsound"
            + ("" if not bad else
               " — " + ", ".join(f"{c.label}/{c.plan}/{c.semantics}"
                                 for c in bad[:5])))
        return "\n".join(lines)


#: chaos replays shrink the stripe so application-sized writes span
#: several OSTs — a crash then exercises multi-server recovery instead
#: of only ever killing whole sub-stripe extents
CHAOS_STRIPE_SIZE = 1 << 16


def variant_cells(variant: "RunVariant", *, nranks: int = 4,
                  seed: int = 7,
                  plans: Sequence[FaultPlan] | None = None,
                  semantics: Sequence[Semantics] = CHAOS_SEMANTICS,
                  stripe_size: int = CHAOS_STRIPE_SIZE
                  ) -> list[ChaosCell]:
    """One configuration's full (plan × semantics) chaos column.

    This is the independently schedulable unit of the chaos matrix: it
    traces the variant once, then replays the trace under every cell.
    Cell order is ``semantics × plans``, matching the serial
    :func:`run_chaos` loop exactly.
    """
    from repro.core.report import analyze
    from repro.faults.walcheck import audit_wal

    plan_list = list(plans) if plans is not None \
        else default_fault_plans(seed)
    trace = variant.run(nranks=nranks, seed=seed)
    analysis = analyze(trace)
    # a WAL run's log directory lives on host-local storage: strong
    # semantics, so the append's ack really is durability (iFast's
    # deployment).  The audit then must find zero lost-acked records.
    opts = trace.meta.get("options") or {}
    wal_dir = opts.get("wal_dir")
    overrides = {str(wal_dir).rstrip("/") + "/": Semantics.STRONG} \
        if wal_dir else {}
    cells: list[ChaosCell] = []
    for sem in semantics:
        predicted = set(analysis.conflicts(sem).paths)
        for plan in plan_list:
            config = PFSConfig(
                semantics=sem, stripe_size=stripe_size,
                semantics_overrides=overrides,
                # a write-back cache gives cache-drop plans
                # something to destroy
                client_cache=bool(plan.cache_drops))
            result = replay_trace(trace, config, plan=plan)
            cell = _judge_cell(
                variant.label, plan, sem, result, predicted)
            if wal_dir:
                audit = audit_wal(trace, result,
                                  settle_order=config.settle_order)
                cell.wal = audit.to_dict() if audit else None
            cells.append(cell)
    return cells


def run_chaos(variants: "Sequence[RunVariant]", *, nranks: int = 4,
              seed: int = 7,
              plans: Iterable[FaultPlan] | None = None,
              semantics: Sequence[Semantics] = CHAOS_SEMANTICS,
              stripe_size: int = CHAOS_STRIPE_SIZE) -> ChaosReport:
    """Replay each variant's trace under every (plan, semantics) cell."""
    plan_list = list(plans) if plans is not None \
        else default_fault_plans(seed)
    report = ChaosReport(nranks=nranks, seed=seed,
                         plans=[p.name for p in plan_list])
    for variant in variants:
        report.cells.extend(variant_cells(
            variant, nranks=nranks, seed=seed, plans=plan_list,
            semantics=semantics, stripe_size=stripe_size))
    return report


def _judge_cell(label: str, plan: FaultPlan, sem: Semantics,
                result: ReplayResult,
                predicted: set[str]) -> ChaosCell:
    sim = result.simulator
    assert sim is not None
    cell = ChaosCell(
        label=label, plan=plan.name, semantics=sem.name.lower(),
        stale_reads=len(result.stale_reads),
        failed_ops=len(result.failed_ops),
        retries=result.stats.retries, giveups=result.stats.giveups,
        corrupted=list(result.corrupted_files),
        violations=[v.to_dict() for v in result.violations])
    if sim.injector is not None:
        stats = sim.injector.stats
        cell.faults_fired = (stats.crashes_fired
                             + stats.cache_drops_fired
                             + stats.errors_injected)
        cell.extents_rolled_back = (stats.extents_discarded
                                    + stats.extents_torn)
    for path in result.corrupted_files:
        if path in predicted:
            continue  # the trace's §5.2 conflict analysis called it
        store = sim.files[path]
        if not _attributed(store, sim.config.settle_order):
            cell.unattributed.append(path)
    return cell


def _attributed(store: FileStore, settle_order: str) -> bool:
    """Is every mismatched byte range explained by an injected fault
    or a hazardous (order-undefined) overlap?"""
    allowed = store.fault_regions()
    for a, b in store.hazard_pairs():
        overlap = a.interval.intersection(b.interval)
        if not overlap.empty:
            allowed = allowed.add(overlap)
    for region in _mismatch_regions(store.settle(settle_order),
                                    store.posix_settle()):
        if not allowed.covers(region):
            return False
    return True


def _mismatch_regions(got: bytes, want: bytes) -> list[Interval]:
    """Maximal byte ranges where the two contents differ (the shorter
    one is zero-padded, matching how holes read back)."""
    n = max(len(got), len(want))
    if n == 0:
        return []
    a = np.zeros(n, dtype=np.uint8)
    b = np.zeros(n, dtype=np.uint8)
    a[:len(got)] = np.frombuffer(got, dtype=np.uint8)
    b[:len(want)] = np.frombuffer(want, dtype=np.uint8)
    diff = a != b
    if not diff.any():
        return []
    edges = np.flatnonzero(np.diff(diff.astype(np.int8)))
    bounds = np.concatenate(([0], edges + 1, [n]))
    return [Interval(int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if diff[lo]]


__all__ = [
    "CHAOS_SEMANTICS",
    "ChaosCell",
    "ChaosReport",
    "default_fault_plans",
    "run_chaos",
    "variant_cells",
]
