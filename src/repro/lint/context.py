"""Shared, lazily-computed analysis artifacts for lint rules.

Every rule pass receives one :class:`LintContext`: a
:class:`~repro.core.report.RunReport` (offsets, per-file access tables,
visibility timelines, metadata conflicts, each computed once on first
use) plus the few artifacts only the rules need.  A full lint run
therefore costs roughly one analysis pipeline regardless of how many
rules run.

Conflict sets here are **uncapped** (``max_per_file=None``): the
linter's contract is *zero false negatives* against the Table 4 replay
pipeline, so it must never drop a pair that the capped report path
might still surface.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.conflicts import Conflict, ConflictScope, ConflictSet
from repro.core.happens_before import HappensBefore
from repro.core.records import AccessRecord
from repro.core.report import RunReport
from repro.core.semantics import Semantics
from repro.tracer.events import TraceRecord


class LintContext(RunReport):
    """A run report plus what the lint rules add.

    That is the POSIX record view, the happens-before order and
    uncapped conflict sets.
    """

    @cached_property
    def posix_records(self) -> list[TraceRecord]:
        """POSIX-layer records in global timestamp order."""
        return self.trace.posix_records

    @cached_property
    def happens_before(self) -> HappensBefore:
        return HappensBefore(self.trace)

    def conflicts(self, semantics: Semantics,
                  max_per_file: int | None = None) -> ConflictSet:
        """Conflict set under one model, uncapped unless asked."""
        return super().conflicts(semantics, max_per_file)

    # -- happens-before helpers -------------------------------------------------

    def pair_ordered(self, first: AccessRecord,
                     second: AccessRecord) -> bool:
        """Is the (timestamp-ordered) pair ordered by synchronization?"""
        return self.happens_before.access_ordered(first, second)

    def pair_ordered_backward(self, first: AccessRecord,
                              second: AccessRecord) -> bool:
        """Does synchronization order the pair *against* its timestamps?"""
        return self.happens_before.access_ordered(second, first)


def conflict_pair_ids(conflict: Conflict) -> tuple[int, int]:
    """The (writer rid, second rid) key used in diagnostics and crossval."""
    return (conflict.first.rid, conflict.second.rid)


def is_cross_process(conflict: Conflict) -> bool:
    return conflict.scope is ConflictScope.DIFFERENT
