"""Metadata-visibility conflict detection (the paper's §7 future work).

The paper's conflict algorithm covers data operations only and
explicitly defers metadata to future work; file systems like GekkoFS and
BatchFS relax *metadata* consistency instead (Table 1 note).  This
module provides the natural first extension: detect namespace
*produce/consume* dependencies that relaxed metadata semantics can
break.

A namespace **producer** makes an entry visible: creating ``open``
(``O_CREAT`` on a file that did not exist), ``mkdir``, or the
destination side of ``rename``.  A namespace **consumer** requires that
entry: a non-creating ``open``/``fopen``, ``stat``/``lstat``/``access``
on the path, directory listing of the parent, or creating a file inside
a directory (which consumes the directory entry).

For every consumer we find the most recent producer of the entity it
needs; a cross-rank pair is a *potential metadata conflict*: on a PFS
with relaxed metadata consistency and no synchronizing metadata flush,
the consumer may not see the entry even though the application's
communication ordered the two calls.  Same-rank pairs are reported too
(scope S), mirroring the data-plane classification; most relaxed systems
order a client's own metadata operations.

This is intentionally a *conservative potential-conflict* analysis —
the metadata analogue of the paper's eventual-semantics data rule —
because, unlike ``fsync``/``close`` for data, POSIX has no portable
"metadata commit" operation to test against.
"""

from __future__ import annotations

import enum
import posixpath
from dataclasses import dataclass, field

from repro.posix import flags as F
from repro.tracer.events import Layer, OPEN_OPS, TraceRecord
from repro.tracer.trace import Trace


class MetadataConflictKind(str, enum.Enum):
    """What kind of namespace dependency the pair represents."""

    FILE_CREATE_USE = "file-create/use"
    DIR_CREATE_USE = "dir-create/use"
    RENAME_USE = "rename/use"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MetadataConflict:
    """A namespace producer/consumer pair that relaxed metadata
    consistency may break."""

    kind: MetadataConflictKind
    path: str                 # the entity consumed (file or directory)
    producer: TraceRecord
    consumer: TraceRecord

    @property
    def cross_process(self) -> bool:
        return self.producer.rank != self.consumer.rank

    @property
    def scope(self) -> str:
        return "D" if self.cross_process else "S"

    @property
    def label(self) -> str:
        return f"{self.kind.value}-{self.scope}"


@dataclass
class MetadataConflictSet:
    conflicts: list[MetadataConflict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.conflicts)

    def __iter__(self):
        return iter(self.conflicts)

    def __bool__(self) -> bool:
        return bool(self.conflicts)

    @property
    def cross_process(self) -> list[MetadataConflict]:
        return [c for c in self.conflicts if c.cross_process]

    def kinds(self) -> set[str]:
        return {c.label for c in self.conflicts}

    def by_path(self) -> dict[str, list[MetadataConflict]]:
        out: dict[str, list[MetadataConflict]] = {}
        for c in self.conflicts:
            out.setdefault(c.path, []).append(c)
        return out


_CONSUMER_FUNCS = frozenset({"stat", "lstat", "access", "opendir",
                             "readdir"})


def is_creating_open(rec: TraceRecord) -> bool:
    """Does this open record make a new namespace entry visible?"""
    if rec.func not in OPEN_OPS:
        return False
    flags = int(rec.args.get("flags", 0))
    existed = bool(rec.args.get("existed", True))
    if rec.func in ("creat",):
        return not existed
    return bool(flags & F.O_CREAT) and not existed


def detect_metadata_conflicts(trace: Trace, *,
                              max_conflicts: int | None = None,
                              ) -> MetadataConflictSet:
    """Find namespace produce/consume pairs in timestamp order."""
    # last producer per entity: path -> (record, kind-on-consume)
    producers: dict[str, tuple[TraceRecord, MetadataConflictKind]] = {}
    out = MetadataConflictSet()

    def consume(path: str, rec: TraceRecord) -> None:
        hit = producers.get(path)
        if hit is None:
            return
        producer, kind = hit
        if producer.rid == rec.rid:
            return
        out.conflicts.append(MetadataConflict(
            kind=kind, path=path, producer=producer, consumer=rec))

    # lint: allow-per-op-loop (metadata ops are sparse; object path)
    for rec in trace.records:
        if rec.layer != Layer.POSIX or rec.path is None:
            continue
        if max_conflicts is not None and len(out) >= max_conflicts:
            break
        path = rec.path
        parent = posixpath.dirname(path)

        # consumption first (an op can both consume its parent dir and
        # produce a new file entry, e.g. a creating open)
        if rec.func in _CONSUMER_FUNCS:
            consume(path, rec)
        elif rec.func in OPEN_OPS:
            if is_creating_open(rec):
                consume(parent, rec)   # creating a file uses the dir
            else:
                consume(path, rec)     # opening uses the file entry
        elif rec.func == "unlink" or rec.func == "remove":
            consume(path, rec)

        # production
        if is_creating_open(rec):
            producers[path] = (rec, MetadataConflictKind.FILE_CREATE_USE)
        elif rec.func == "mkdir":
            producers[path] = (rec, MetadataConflictKind.DIR_CREATE_USE)
        elif rec.func == "rename":
            dst = rec.args.get("to")
            if dst:
                producers[str(dst)] = (
                    rec, MetadataConflictKind.RENAME_USE)
            producers.pop(path, None)
        elif rec.func in ("unlink", "remove"):
            producers.pop(path, None)
    return out
