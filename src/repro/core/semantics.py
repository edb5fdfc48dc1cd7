"""Consistency-model lattice and the PFS registry (paper §3, Table 1).

The paper's four POSIX models form a strength chain::

    STRONG  >  COMMIT  >  SESSION  >  EVENTUAL

A fifth model, :attr:`Semantics.OBJECT`, covers object-store backends
(immutable whole-object PUT/GET, no partial overwrite, no atomic
rename, list-after-write lag).  It differs from the POSIX chain *in
kind*: an object conflict exists at whole-object granularity, so the
lattice is a partial order ::

    STRONG > COMMIT > SESSION > OBJECT      (chain)
    STRONG > COMMIT > SESSION > EVENTUAL    (chain)
    EVENTUAL ⋈ OBJECT                       (incomparable)

``SESSION >= OBJECT`` holds because every byte-overlap pair is also a
whole-object pair and the object clearing condition (writer's session
closed before the reader's session opened) implies the session one
(writer closed before the reader's access) — an object-clean
application is therefore session-clean.  ``EVENTUAL`` and ``OBJECT``
dominate each other in neither direction: disjoint-byte concurrent
puts to one object are eventual-clean but object-conflicting, while a
byte overlap whose writer closed before the reader opened is
object-clean but eventual-conflicting.

A file system offering a model at least as strong as an application's
*requirement* runs that application correctly.  The requirement is the
weakest model under which the conflict detector reports nothing — with
the refinement from §6.3 that same-process (S) conflicts are harmless on
any PFS that orders a single process's own operations (all of Table 1
except BurstFS, and PLFS/PVFS2 whose overlapping-write behaviour is
undefined).  Because ``OBJECT`` sits off the chain, the sufficiency
search stays on the POSIX models and object stores are judged by the
separate :func:`object_store_compatible` predicate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.conflicts import ConflictSet


class Semantics(enum.Enum):
    """Consistency-semantics categories, strongest first.

    The comparison operators implement the *partial* strength order
    documented in the module docstring: the four POSIX models compare
    by value, ``OBJECT`` sits below ``SESSION`` but is incomparable
    with ``EVENTUAL`` (both ``>=`` directions are False there).
    """

    STRONG = 4
    COMMIT = 3
    SESSION = 2
    EVENTUAL = 1
    OBJECT = 0

    def __ge__(self, other: "Semantics") -> bool:
        if self is other:
            return True
        if other is Semantics.OBJECT:
            # SESSION (and everything above it) dominates OBJECT;
            # EVENTUAL does not
            return self is not Semantics.EVENTUAL
        if self is Semantics.OBJECT:
            return False
        return self.value >= other.value

    def __gt__(self, other: "Semantics") -> bool:
        return self is not other and self.__ge__(other)

    def __le__(self, other: "Semantics") -> bool:
        return other.__ge__(self)

    def __lt__(self, other: "Semantics") -> bool:
        return self is not other and other.__ge__(self)

    @property
    def title(self) -> str:
        if self is Semantics.OBJECT:
            return "Object-store Consistency"
        return self.name.capitalize() + " Consistency"

    def at_least(self, other: "Semantics") -> bool:
        """True when this model is at least as strong as ``other``."""
        return self.__ge__(other)


#: Weakest-to-strongest iteration order used by the sufficiency search.
#: Deliberately the POSIX chain only: OBJECT is off-chain (incomparable
#: with EVENTUAL), so "the weakest sufficient model" is answered on the
#: chain and object-store fitness separately by
#: :func:`object_store_compatible`.
WEAKEST_FIRST = [Semantics.EVENTUAL, Semantics.SESSION, Semantics.COMMIT,
                 Semantics.STRONG]


@dataclass(frozen=True)
class FileSystemInfo:
    """One row of the Table 1 registry."""

    name: str
    semantics: Semantics
    #: does a read see the same process's own earlier write (program
    #: order)?  True for everything in the paper except BurstFS, and
    #: PLFS/PVFS2 where overlapping writes are undefined (§3.5).
    same_process_ordering: bool = True
    notes: str = ""


#: Table 1 of the paper: HPC file systems and their consistency semantics.
PFS_REGISTRY: tuple[FileSystemInfo, ...] = (
    FileSystemInfo("GPFS", Semantics.STRONG),
    FileSystemInfo("Lustre", Semantics.STRONG),
    FileSystemInfo("GekkoFS", Semantics.STRONG,
                   notes="relaxed metadata, strict data consistency"),
    FileSystemInfo("BeeGFS", Semantics.STRONG),
    FileSystemInfo("BatchFS", Semantics.STRONG,
                   notes="relaxed metadata, strict data consistency"),
    FileSystemInfo("OrangeFS", Semantics.STRONG, same_process_ordering=False,
                   notes="non-conflicting write semantics; overlapping "
                         "writes undefined (PVFS/PVFS2 lineage)"),
    FileSystemInfo("BSCFS", Semantics.COMMIT),
    FileSystemInfo("UnifyFS", Semantics.COMMIT,
                   notes="fsync or lamination acts as the commit"),
    FileSystemInfo("SymphonyFS", Semantics.COMMIT,
                   notes="fsync flushes and commits"),
    FileSystemInfo("BurstFS", Semantics.COMMIT, same_process_ordering=False,
                   notes="read after two same-process writes may return "
                         "either value"),
    FileSystemInfo("NFS", Semantics.SESSION),
    FileSystemInfo("AFS", Semantics.SESSION),
    FileSystemInfo("DDN IME", Semantics.SESSION),
    FileSystemInfo("Gfarm/BB", Semantics.SESSION),
    FileSystemInfo("PLFS", Semantics.EVENTUAL, same_process_ordering=False,
                   notes="overlapping-write outcome undefined even with "
                         "synchronization"),
    FileSystemInfo("echofs", Semantics.EVENTUAL,
                   notes="POSIX locally per node; global visibility on "
                         "transfer to the PFS"),
    FileSystemInfo("MarFS", Semantics.EVENTUAL),
)

#: Object-store backends (the fifth model): immutable whole-object
#: PUT/GET, no partial overwrite, no atomic rename, list-after-write
#: lag.  Kept out of :data:`PFS_REGISTRY` so Table 1 stays the paper's
#: table; :data:`FULL_REGISTRY` is the combined judgement universe.
OBJECT_STORES: tuple[FileSystemInfo, ...] = (
    FileSystemInfo("S3", Semantics.OBJECT,
                   notes="immutable puts; read-after-write for new "
                         "keys, list-after-write lag"),
    FileSystemInfo("Ceph RGW", Semantics.OBJECT,
                   notes="S3-compatible gateway over RADOS"),
    FileSystemInfo("Swift", Semantics.OBJECT,
                   notes="eventually consistent container listings"),
)

#: Every file system the analyses can issue verdicts for.
FULL_REGISTRY: tuple[FileSystemInfo, ...] = PFS_REGISTRY + OBJECT_STORES


def registry_by_semantics() -> dict[Semantics, list[str]]:
    """Table 1's grouping (plus object stores): semantics -> names."""
    out: dict[Semantics, list[str]] = {s: [] for s in Semantics}
    for fs in FULL_REGISTRY:
        out[fs.semantics].append(fs.name)
    return out


def find_filesystem(name: str) -> FileSystemInfo:
    for fs in FULL_REGISTRY:
        if fs.name.lower() == name.lower():
            return fs
    raise KeyError(f"unknown file system {name!r}")


def conflicts_matter(conflicts: "ConflictSet", *,
                     same_process_ordering: bool = True) -> bool:
    """Would the given conflict set break an application on such a PFS?

    With ``same_process_ordering`` (the common case), S conflicts are
    resolved by the file system itself and only D conflicts matter.
    """
    if same_process_ordering:
        return conflicts.cross_process_count > 0
    return bool(conflicts)


def weakest_sufficient_semantics(
        conflicts_by_model: dict[Semantics, "ConflictSet"], *,
        same_process_ordering: bool = True) -> Semantics:
    """The weakest model whose detected conflicts are harmless.

    ``conflicts_by_model`` maps each candidate model to the conflicts the
    detector found under it (STRONG may be omitted: it never conflicts).
    """
    for model in WEAKEST_FIRST:
        if model is Semantics.STRONG:
            return model
        cs = conflicts_by_model.get(model)
        if cs is None:
            continue
        if not conflicts_matter(
                cs, same_process_ordering=same_process_ordering):
            return model
    return Semantics.STRONG


def object_store_compatible(
        conflicts_by_model: dict[Semantics, "ConflictSet"], *,
        same_process_ordering: bool = True) -> bool:
    """Can this application run correctly on an object-store backend?

    OBJECT is off the POSIX chain, so sufficiency is a predicate, not a
    position in :data:`WEAKEST_FIRST`: the app is object-store safe iff
    the whole-object conflict detector found nothing that matters.
    Without an OBJECT entry in ``conflicts_by_model`` the answer is a
    conservative ``False`` — absence of analysis is not cleanliness.
    """
    cs = conflicts_by_model.get(Semantics.OBJECT)
    if cs is None:
        return False
    return not conflicts_matter(
        cs, same_process_ordering=same_process_ordering)


def compatible_filesystems(
        conflicts_by_model: dict[Semantics, "ConflictSet"],
        registry: Iterable[FileSystemInfo] = FULL_REGISTRY,
        ) -> list[FileSystemInfo]:
    """Registry entries this application can run on correctly.

    Each file system is judged with its *own* same-process-ordering
    capability, so e.g. BurstFS is excluded for an app with WAW-S
    conflicts even though UnifyFS (same semantics class) is fine.
    Object-store rows are judged by :func:`object_store_compatible`
    rather than chain position.
    """
    out = []
    for fs in registry:
        if fs.semantics is Semantics.OBJECT:
            if object_store_compatible(
                    conflicts_by_model,
                    same_process_ordering=fs.same_process_ordering):
                out.append(fs)
            continue
        required = weakest_sufficient_semantics(
            conflicts_by_model,
            same_process_ordering=fs.same_process_ordering)
        if fs.semantics.at_least(required):
            out.append(fs)
    return out
