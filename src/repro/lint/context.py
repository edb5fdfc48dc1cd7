"""Shared, lazily-computed analysis artifacts for lint rules.

Every rule pass receives one :class:`LintContext`: a
:class:`~repro.core.report.RunReport` of the trace, so the rules read
the one analysis every report of the trace shares (offsets, per-file
access tables, conflict sets, the happens-before order, metadata
conflicts), plus the POSIX record list, built once per lint run.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.conflicts import Conflict, ConflictScope
from repro.core.report import RunReport
from repro.tracer.events import TraceRecord


class LintContext(RunReport):
    """A run report plus the POSIX record view the lint rules walk."""

    @cached_property
    def posix_records(self) -> list[TraceRecord]:
        """POSIX-layer records in global timestamp order."""
        return self.trace.posix_records


def conflict_pair_ids(conflict: Conflict) -> tuple[int, int]:
    """The (writer rid, second rid) key used in diagnostics."""
    return (conflict.first.rid, conflict.second.rid)


def is_cross_process(conflict: Conflict) -> bool:
    return conflict.scope is ConflictScope.DIFFERENT
