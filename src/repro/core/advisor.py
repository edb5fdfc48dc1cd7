"""Conflict-repair advice (paper §4.1).

    "A programmer running the application on a PFS with weak consistency
    can prevent the conflicts by inserting commit operations at suitable
    points, or the designer of a parallel I/O library can insert commit
    operations automatically."

This module turns conflicts found under one model (a
:class:`~repro.core.conflicts.ConflictSet` or any group of its
:class:`~repro.core.conflicts.Conflict` pairs) into a deduplicated list
of insertion points:

* for a **commit**-semantics conflict: insert a commit (``fsync``) on the
  writer's descriptor right after the first access of the pair;
* for a **session**-semantics conflict: additionally, the second process
  must re-open the file after the writer's commit/close — so the advice
  pairs a writer-side close/flush with a reader-side reopen;
* conflicts attributed to an I/O library layer (the issuing layer of the
  first access is not the application) are labelled as library-side
  fixes, matching the paper's observation that most conflicts come from
  library metadata and "can be avoided with little effort".

Advice is *sound by construction*: applying a suggested commit between
``t1`` and ``t2`` falsifies the §5.2 conflict condition for that pair.
The suggestions are validated end-to-end by tests that re-run FLASH with
the suggested fix applied and observe a clean trace.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.core.conflicts import Conflict, ConflictSet
from repro.core.semantics import Semantics
from repro.util.tables import AsciiTable


class FixKind(str, enum.Enum):
    INSERT_COMMIT = "insert-commit"
    CLOSE_THEN_REOPEN = "close-then-reopen"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FixSuggestion:
    """One deduplicated repair point."""

    kind: FixKind
    path: str
    writer_rank: int
    after_func: str        # the call to commit after (e.g. "pwrite")
    after_time: float      # entry timestamp of that call
    library_side: bool     # first access was issued by an I/O library
    reader_rank: int | None = None  # for close-then-reopen advice
    conflicts_resolved: int = 1

    @property
    def summary(self) -> str:
        where = (f"library ({self.after_func})" if self.library_side
                 else self.after_func)
        if self.kind is FixKind.INSERT_COMMIT:
            return (f"rank {self.writer_rank}: fsync {self.path} after "
                    f"{where} @ t={self.after_time:.6f} "
                    f"(resolves {self.conflicts_resolved})")
        return (f"rank {self.writer_rank}: close {self.path} after "
                f"{where} @ t={self.after_time:.6f}; rank "
                f"{self.reader_rank}: reopen before next access "
                f"(resolves {self.conflicts_resolved})")


def _suggestion_for(conflict: Conflict, semantics: Semantics
                    ) -> FixSuggestion:
    first = conflict.first
    library_side = first.issuer not in ("app",)
    if semantics is Semantics.OBJECT:
        # an object store publishes whole objects on close only — an
        # fsync commits nothing, so the repair is always to finish the
        # PUT (close) before the other session opens its version
        return FixSuggestion(kind=FixKind.CLOSE_THEN_REOPEN,
                             path=conflict.path, writer_rank=first.rank,
                             after_func=first.func,
                             after_time=first.tstart,
                             library_side=library_side,
                             reader_rank=conflict.second.rank)
    if semantics is Semantics.COMMIT or first.rank == conflict.second.rank:
        kind = FixKind.INSERT_COMMIT
        reader = None
    else:
        kind = FixKind.CLOSE_THEN_REOPEN
        reader = conflict.second.rank
    return FixSuggestion(kind=kind, path=conflict.path,
                         writer_rank=first.rank, after_func=first.func,
                         after_time=first.tstart,
                         library_side=library_side, reader_rank=reader)


def suggest_fixes(conflicts: Iterable[Conflict],
                  semantics: Semantics) -> list[FixSuggestion]:
    """Deduplicated repair points for conflicts under ``semantics``.

    Suggestions are keyed by (path, writer, kind): committing after the
    *first* conflicting write of a file/writer pair resolves every later
    pair with the same shape, so one suggestion carries a
    ``conflicts_resolved`` count instead of repeating per pair.
    """
    buckets: Counter = Counter()
    exemplar: dict[tuple, FixSuggestion] = {}
    for conflict in conflicts:
        s = _suggestion_for(conflict, semantics)
        key = (s.path, s.writer_rank, s.kind, s.reader_rank)
        buckets[key] += 1
        if key not in exemplar or s.after_time < exemplar[key].after_time:
            exemplar[key] = s
    out = []
    for key, count in buckets.items():
        s = exemplar[key]
        out.append(FixSuggestion(
            kind=s.kind, path=s.path, writer_rank=s.writer_rank,
            after_func=s.after_func, after_time=s.after_time,
            library_side=s.library_side, reader_rank=s.reader_rank,
            conflicts_resolved=count))
    out.sort(key=lambda s: (s.path, s.writer_rank, s.after_time))
    return out


def advice_text(conflicts: ConflictSet) -> str:
    """Human-readable repair plan for one conflict set."""
    fixes = suggest_fixes(conflicts, conflicts.semantics)
    if not fixes:
        return (f"No conflicts under {conflicts.semantics.name.lower()} "
                f"semantics; nothing to fix.")
    table = AsciiTable(
        ["file", "fix", "who", "where", "resolves", "layer"],
        title=f"Suggested fixes for "
              f"{conflicts.semantics.name.lower()}-semantics conflicts")
    for s in fixes:
        who = (f"rank {s.writer_rank}"
               + (f" + rank {s.reader_rank}" if s.reader_rank is not None
                  else ""))
        table.add_row(s.path, s.kind, who,
                      f"after {s.after_func} @ {s.after_time:.6f}",
                      s.conflicts_resolved,
                      "I/O library" if s.library_side else "application")
    return table.render()
