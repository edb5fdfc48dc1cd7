"""The benchmark's two workloads: an untimed set-up and a timed pass.

Every input comes from the workload seed: it is the simulator seed of
each traced configuration and the seed of the synthetic trace.  A pass
runs *units* -- one per configuration, or the one synthetic trace --
and each unit yields a JSON document: the output that the checks and
the pinned digests cover.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hostspeed
from repro.apps.registry import RunVariant, all_variants
from repro.core import report as report_module
from repro.core.conflicts import count_conflicts_columnar
from repro.core.offsets import reconstruct_tables_columnar
from repro.core.semantics import Semantics
from repro.study import runner
from repro.tracer import columnar
from repro.tracer.synth import synthetic_columnar_trace
from repro.tracer.trace import Trace

#: the seed at which every unit's output digest is pinned
RECORDED_SEED = 7
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(doc: dict) -> str:
    """SHA-256 of ``doc`` as canonical JSON."""
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def pinned_digests(workload: str) -> dict[str, str]:
    """The digests expected.json pins for ``workload`` at RECORDED_SEED."""
    return json.loads(EXPECTED_PATH.read_text()).get(workload, {})


def paper_expectations(variant: RunVariant, cell: dict) -> list[str]:
    """Where a cell summary departs from the paper's published results:
    the Table 3 X-Y and pattern, the Table 4 session conflict flags, and
    the §6.3 finding that commit semantics leaves FLASH conflict-free."""
    problems = []
    if cell["xy"] != variant.expected_xy:
        problems.append(f"X-Y {cell['xy']}, Table 3 has "
                        f"{variant.expected_xy}")
    if cell["pattern"] != variant.expected_pattern:
        problems.append(f"pattern {cell['pattern']!r}, Table 3 has "
                        f"{variant.expected_pattern!r}")
    session = sorted(kind for kind, hit
                     in cell["conflicts"]["session"]["flags"].items() if hit)
    if session != sorted(variant.expected_conflicts):
        problems.append(f"session conflicts {session}, Table 4 has "
                        f"{sorted(variant.expected_conflicts)}")
    commit = cell["conflicts"]["commit"]["count"]
    if variant.commit_clean and commit:
        problems.append(f"{commit} conflicts under commit semantics, "
                        f"§6.3 has none")
    return problems


def untimed_step(label: str, work: Callable[[], Any]) -> Any:
    """The ``step`` of a unit run outside a timed pass."""
    return work()


@dataclass
class PassResult:
    """What one timed pass produced."""

    #: wall time of the timed steps; the probes between them are left out
    wall_s: float = 0.0
    #: each timed step's time in reference seconds (hostspeed.py)
    steps: dict[str, float] = field(default_factory=dict)
    records: int = 0
    docs: dict[str, dict] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    #: work counts; they repeat exactly
    counts: Counter = field(default_factory=Counter)
    #: a traced pass's spans, rows of ``spans.SPAN_COLUMNS``
    spans: np.ndarray | None = None
    #: the host probe the last step ended with
    last_probe_s: float | None = None

    def step(self, label: str, work: Callable[[], Any]) -> Any:
        """Run ``work`` as one timed step between two host probes."""
        out, wall_s, self.steps[label], self.last_probe_s = hostspeed.timed(
            work, self.last_probe_s)
        self.wall_s += wall_s
        return out

    def run_unit(self, label: str, unit: Callable[[Callable], Any]) -> Any:
        """Run one unit, which times its steps with :meth:`step`; one
        that raises is recorded, not fatal."""
        try:
            return unit(self.step)
        except Exception as exc:  # counted in `failed`; the pass goes on
            self.errors[label] = f"{type(exc).__name__}: {exc}"
            return None

    def carried(self, trace: Trace) -> None:
        """Count the records and MPI events a unit took to a verdict."""
        self.records += len(trace.records)
        self.counts["tracer.records"] += len(trace.records)
        self.counts["mpi.events"] += len(trace.mpi_events)
        for layer, n in Counter(r.layer.value
                                for r in trace.records).items():
            self.counts[f"tracer.records.{layer}"] += n


class Workload:
    """A named workload: set up untimed, then run timed passes."""

    name = ""
    #: unit labels, in pass order
    units: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """(Re)build every input of the timed passes."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, label: str, doc: dict) -> list[str]:
        """Problems with one unit's output that show at any seed."""
        raise NotImplementedError


class Campaign(Workload):
    """All 28 registry configurations traced at 16 ranks with
    ``RunVariant.run``, each reduced with ``cell_summary`` (the ``study
    all`` cell, serial and uncached) and checked for §5.2 race freedom
    with ``analyze(trace).validate(Semantics.SESSION)``."""

    name = "campaign"
    nranks = 16
    #: rank count of the untimed warm-up run of every configuration
    warmup_nranks = 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.variants = {v.label: v for v in all_variants()}
        self.units = tuple(self.variants)

    def prepare(self) -> None:
        # lazy imports and first-call costs land here, not in a pass
        for v in self.variants.values():
            runner.cell_summary(
                v, v.run(nranks=self.warmup_nranks, seed=self.seed),
                seed=self.seed)

    def _trace_and_summarize(self, variant: RunVariant):
        trace = variant.run(nranks=self.nranks, seed=self.seed)
        cell = runner.cell_summary(variant, trace, seed=self.seed)
        race = report_module.analyze(trace).validate(Semantics.SESSION)
        return trace, {
            "cell": cell,
            "race": {"checked_pairs": race.checked_pairs,
                     "unsynchronized": len(race.unsynchronized),
                     "timestamp_disagreements":
                         len(race.timestamp_disagreements)}}

    def _unit(self, variant: RunVariant, step: Callable):
        return step(variant.label,
                    partial(self._trace_and_summarize, variant))

    def run_pass(self) -> PassResult:
        result = PassResult()
        for label, variant in self.variants.items():
            out = result.run_unit(label, partial(self._unit, variant))
            if out is not None:
                trace, result.docs[label] = out
                result.carried(trace)
        return result

    def check(self, label: str, doc: dict) -> list[str]:
        problems = paper_expectations(self.variants[label], doc["cell"])
        unsynchronized = doc["race"]["unsynchronized"]
        if unsynchronized:
            problems.append(f"{unsynchronized} conflicting pairs not "
                            f"ordered by happens-before (§5.2)")
        return problems


class BigTrace(Workload):
    """A seeded 200 000-data-op synthetic trace from ``.rtrc`` to a
    verdict.  It has no MPI events, so happens-before does no work;
    record materialization, offsets, overlaps, conflicts and patterns
    do."""

    name = "bigtrace"
    units = ("synthetic",)
    n_ops = 200_000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.path = workdir / "bigtrace.rtrc"

    def prepare(self) -> None:
        warmup = self.workdir / "bigtrace-warmup.rtrc"
        columnar.write_rtrc(synthetic_columnar_trace(2_000, seed=self.seed),
                            warmup)
        self._verdict(warmup, untimed_step)
        columnar.write_rtrc(
            synthetic_columnar_trace(self.n_ops, seed=self.seed), self.path)

    @staticmethod
    def _verdict(path: Path, step: Callable) -> tuple[Trace, dict]:
        """Take the trace at ``path`` to a verdict in timed steps, each
        of which runs one stage; the report caches what they compute."""
        ct = step("read_rtrc", partial(columnar.read_rtrc, path))
        trace = step("to_trace", ct.to_trace)
        report = report_module.analyze(trace)
        step("offsets", lambda: report.accesses)
        conflicts = {}
        for semantics in runner.SUMMARY_SEMANTICS:
            cs = step(f"conflicts.{semantics.name.lower()}",
                      partial(report.conflicts, semantics))
            conflicts[semantics.name.lower()] = {"count": len(cs),
                                                 "flags": cs.flags}
        step("verdicts", lambda: (report.weakest_sufficient_semantics(),
                                  report.object_store_compatible()))
        step("patterns", lambda: (report.sharing, report.local_mix,
                                  report.global_mix))
        step("metadata", lambda: report.metadata_conflicts)
        return trace, {
            "records": len(trace.records),
            "accesses": len(report.accesses),
            "conflicts": conflicts,
            "weakest_semantics":
                report.weakest_sufficient_semantics().name.lower(),
            "object_store_compatible": report.object_store_compatible(),
            "sharing": [[g.group, g.xy(trace.nranks), str(g.pattern)]
                        for g in report.sharing],
            "pattern_mix": {
                view: [mix.consecutive, mix.monotonic, mix.random]
                for view, mix in (("local", report.local_mix),
                                  ("global", report.global_mix))},
            "metadata_deps": len(report.metadata_conflicts),
        }

    def run_pass(self) -> PassResult:
        result = PassResult()
        out = result.run_unit("synthetic", partial(self._verdict, self.path))
        if out is not None:
            trace, result.docs["synthetic"] = out
            result.carried(trace)
        return result

    def check(self, label: str, doc: dict) -> list[str]:
        """Agree with the array-native columnar path on the same file."""
        ct = columnar.read_rtrc(self.path)
        tables = reconstruct_tables_columnar(ct)
        problems = []
        accesses = sum(len(table.rid) for table in tables.values())
        if accesses != doc["accesses"]:
            problems.append(f"{doc['accesses']} accesses, the columnar "
                            f"path finds {accesses}")
        for semantics in runner.SUMMARY_SEMANTICS:
            model = semantics.name.lower()
            counts = count_conflicts_columnar(ct, semantics, tables=tables)
            ours = doc["conflicts"][model]
            if (sum(counts.values()) != ours["count"]
                    or {k: n > 0 for k, n in counts.items()}
                    != ours["flags"]):
                problems.append(f"{model} conflicts {ours} disagree with "
                                f"the columnar path {counts}")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Campaign, BigTrace)}
