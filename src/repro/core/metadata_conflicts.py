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
from typing import NamedTuple

import numpy as np

from repro.posix import flags as F
from repro.tracer.columnar import I64_NONE
from repro.tracer.events import OPEN_OPS
from repro.tracer.trace import Trace


class MetadataConflictKind(str, enum.Enum):
    """What kind of namespace dependency the pair represents."""

    FILE_CREATE_USE = "file-create/use"
    DIR_CREATE_USE = "dir-create/use"
    RENAME_USE = "rename/use"

    def __str__(self) -> str:
        return self.value


class NamespaceOp(NamedTuple):
    """The call on one side of a metadata conflict."""

    rid: int
    rank: int
    func: str
    tstart: float


@dataclass(frozen=True)
class MetadataConflict:
    """A namespace producer/consumer pair that relaxed metadata
    consistency may break."""

    kind: MetadataConflictKind
    path: str                 # the entity consumed (file or directory)
    producer: NamespaceOp
    consumer: NamespaceOp

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
#: every function either side of a produce/consume pair can be
_NAMESPACE_FUNCS = (_CONSUMER_FUNCS | OPEN_OPS
                    | {"mkdir", "rename", "unlink", "remove"})


def is_creating_open(func: str, args: dict) -> bool:
    """Does calling ``func`` with ``args`` create a namespace entry?"""
    if func not in OPEN_OPS:
        return False
    existed = bool(args.get("existed", True))
    if func == "creat":
        return not existed
    return bool(int(args.get("flags", 0)) & F.O_CREAT) and not existed


def detect_metadata_conflicts(trace: Trace) -> MetadataConflictSet:
    """Find namespace produce/consume pairs in timestamp order.

    Only the POSIX rows the namespace function mask selects are visited.
    """
    ct = trace.columnar
    c = ct.columns
    rows = np.flatnonzero(
        ct.posix_mask() & (c["path_id"] >= 0)
        & ct.func_lookup(_NAMESPACE_FUNCS)[c["func_id"]])
    # last producer per entity: path -> (op, kind-on-consume)
    producers: dict[str, tuple[NamespaceOp, MetadataConflictKind]] = {}
    out = MetadataConflictSet()

    def consume(path: str, op: NamespaceOp) -> None:
        hit = producers.get(path)
        if hit is None:
            return
        producer, kind = hit
        if producer.rid == op.rid:
            return
        out.conflicts.append(MetadataConflict(
            kind=kind, path=path, producer=producer, consumer=op))

    for row, rid, rank, func_id, path_id, tstart, flags in zip(
            rows.tolist(), *(c[name][rows].tolist() for name in (
                "rid", "rank", "func_id", "path_id", "tstart",
                "flags"))):
        func = ct.funcs[func_id]
        path = ct.paths[path_id]
        op = NamespaceOp(rid, rank, func, tstart)
        extra = ct.extras.get(row, {})
        creating = is_creating_open(func, extra if flags == I64_NONE
                                    else {**extra, "flags": flags})

        # consumption first (an op can both consume its parent dir and
        # produce a new file entry, e.g. a creating open)
        if func in _CONSUMER_FUNCS:
            consume(path, op)
        elif func in OPEN_OPS:
            # creating a file uses the dir; opening uses the file entry
            consume(posixpath.dirname(path) if creating else path, op)
        elif func == "unlink" or func == "remove":
            consume(path, op)

        # production
        if creating:
            producers[path] = (op, MetadataConflictKind.FILE_CREATE_USE)
        elif func == "mkdir":
            producers[path] = (op, MetadataConflictKind.DIR_CREATE_USE)
        elif func == "rename":
            dst = extra.get("to")
            if dst:
                producers[str(dst)] = (
                    op, MetadataConflictKind.RENAME_USE)
            producers.pop(path, None)
        elif func in ("unlink", "remove"):
            producers.pop(path, None)
    return out
