"""Diagnostic model for the consistency-semantics linter.

A :class:`Diagnostic` is one finding of one rule: what went wrong, how
bad it is, which file/ranks/records are implicated, and (when the rule
can compute one) a fix-it hint in the style of :mod:`repro.core.advisor`.
Rules fold repeated findings of the same shape into a single diagnostic
with a ``count`` and a machine-readable ``data`` payload, so reports stay
readable on traces with thousands of conflicting pairs.

A :class:`LintReport` is the result of one linted run: the diagnostics of
every rule that executed, plus the identity of the trace.  Its
``exit_code`` encodes the CLI contract: non-zero iff any ERROR-severity
diagnostic was emitted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator


class Severity(enum.IntEnum):
    """How bad a diagnostic is.

    * ``ERROR`` — the application can observe wrong data on a PFS of the
      rule's semantics class (cross-process hazards, true races);
    * ``WARNING`` — suspicious but survivable, e.g. hazards a PFS with
      same-process ordering resolves itself (§6.3), or hygiene issues;
    * ``INFO`` — advisory, e.g. commit operations that cost time but
      protect no reader.
    """

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one lint rule."""

    rule: str                      # rule name, e.g. "session-hazard"
    rule_id: str                   # stable id, e.g. "L002"
    severity: Severity
    message: str
    path: str | None = None        # file the finding is about
    kind: str = ""                 # sub-classification, e.g. "WAW-D"
    ranks: tuple[int, ...] = ()    # ranks implicated
    events: tuple[int, ...] = ()   # exemplar trace record ids
    time: float | None = None      # entry time of the first implicated op
    count: int = 1                 # findings folded into this diagnostic
    fixits: tuple[str, ...] = ()   # §4.1-style repair hints
    data: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def location(self) -> str:
        """Compact ``path@time`` anchor for text output."""
        where = self.path or "<run>"
        if self.time is not None:
            where += f"@{self.time:.6f}"
        return where

    def sort_key(self) -> tuple:
        return (-int(self.severity), self.rule_id, self.path or "",
                self.kind, self.time if self.time is not None else -1.0)

    def to_dict(self) -> dict[str, Any]:
        """Stable, JSON-serializable form (machine-readable report)."""
        out: dict[str, Any] = {
            "rule": self.rule,
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "path": self.path,
            "kind": self.kind,
            "ranks": list(self.ranks),
            "events": list(self.events),
            "time": self.time,
            "count": self.count,
            "fixits": list(self.fixits),
        }
        if self.data:
            out["data"] = self.data
        return out


@dataclass
class LintReport:
    """All diagnostics of one linted run."""

    label: str
    nranks: int
    diagnostics: list[Diagnostic] = field(default_factory=list)
    rules_run: tuple[str, ...] = ()

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    # -- selection ------------------------------------------------------------

    def for_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.rule == rule or d.rule_id == rule]

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.at_least(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity == Severity.WARNING]

    def by_rule(self) -> dict[str, list[Diagnostic]]:
        out: dict[str, list[Diagnostic]] = {}
        for d in self.diagnostics:
            out.setdefault(d.rule, []).append(d)
        return out

    # -- verdicts -------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    @property
    def exit_code(self) -> int:
        """CLI contract: non-zero iff any ERROR diagnostic."""
        return 1 if self.errors else 0

    def counts(self) -> dict[str, int]:
        out = {str(s): 0 for s in
               (Severity.ERROR, Severity.WARNING, Severity.INFO)}
        for d in self.diagnostics:
            out[str(d.severity)] += 1
        return out

    # -- normalization ----------------------------------------------------------

    def sorted(self) -> "LintReport":
        """Deterministic report order: severity desc, rule, file, time."""
        return LintReport(
            label=self.label, nranks=self.nranks,
            diagnostics=sorted(self.diagnostics,
                               key=Diagnostic.sort_key),
            rules_run=self.rules_run)

    def to_dict(self) -> dict[str, Any]:
        report = self.sorted()
        return {
            "label": report.label,
            "nranks": report.nranks,
            "rules_run": list(report.rules_run),
            "summary": report.counts(),
            "exit_code": report.exit_code,
            "diagnostics": [d.to_dict() for d in report.diagnostics],
        }
