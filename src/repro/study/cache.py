"""Content-addressed result cache for study and chaos cells.

The study's evaluation matrix is embarrassingly parallel *and* highly
repetitive: the same (application, configuration, seed) cell is re-run
by ``study all``, the chaos matrix, benchmarks, and CI, even though
its result is a pure function of the cell parameters and the analysis
code.  This module makes that function memoizable on disk.

A cache key is the SHA-256 of a canonical-JSON *key material* document
containing:

* the cell kind (``study-cell``, ``chaos-variant``, ...);
* every cell parameter (label, nranks, seed, fault-plan names, ...);
* the **code fingerprint**: a digest over the full source of
  :mod:`repro`, so any change to the simulator, analyses, or apps
  invalidates every cached cell at once.  Correctness never depends on
  remembering to bump a version number.

Canonical JSON (sorted keys, explicit separators, no NaN) makes the
mapping from key material to key injective — two different parameter
tuples cannot collide short of a SHA-256 collision.  A hypothesis test
pins this.

Payloads are plain JSON documents stored at
``<root>/<key[:2]>/<key>.json`` and written atomically (tempfile +
``os.replace``), so a killed run can never leave a half-written cell
that a later run would trust.  Unreadable or corrupt entries degrade to
cache misses.

The default root is ``.repro-cache/`` under the current directory
(overridable with ``REPRO_CACHE_DIR``); CI restores it via
``actions/cache`` keyed on the same code fingerprint, which turns the
chaos/smoke steps into incremental replays.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any

#: environment variable naming the cache root directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: extra salt mixed into the fingerprint (tests use it to force misses)
FINGERPRINT_SALT_ENV = "REPRO_FINGERPRINT_SALT"
#: default cache root, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


@lru_cache(maxsize=4)
def _source_digest(root: str) -> str:
    """SHA-256 over every ``*.py`` under ``root`` (path + content).

    Sorted traversal makes the digest independent of filesystem order;
    the relative path is hashed alongside the content so renaming a
    module changes the fingerprint even when its text does not.
    """
    h = hashlib.sha256()
    base = Path(root)
    for path in sorted(base.rglob("*.py")):
        h.update(str(path.relative_to(base)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def code_fingerprint() -> str:
    """Fingerprint of the :mod:`repro` source tree (+ optional salt).

    Cells cached under one fingerprint are never served once any source
    file changes; the salt lets tests (and operators) invalidate the
    cache without touching code.
    """
    digest = _source_digest(str(_package_root()))
    salt = os.environ.get(FINGERPRINT_SALT_ENV, "")
    if not salt:
        return digest
    return hashlib.sha256(
        (digest + "\0" + salt).encode()).hexdigest()


def key_material(kind: str, **fields: Any) -> str:
    """Canonical-JSON document a cache key is hashed from.

    Exposed separately from :func:`cache_key` so tests can assert the
    material itself is injective over the cell parameters.
    """
    from repro.tracer.columnar import RTRC_VERSION

    if "kind" in fields:
        raise ValueError("'kind' is the first positional argument")
    # the on-disk trace format version is part of every key: bumping
    # RTRC_VERSION invalidates all cached cells even when no analysis
    # source changed (e.g. a column was added with a compatible default)
    doc = {"kind": kind, "fingerprint": code_fingerprint(),
           "trace_format": RTRC_VERSION, **fields}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=_reject_unknown)


def _reject_unknown(obj: Any) -> Any:
    raise TypeError(
        f"cache key fields must be JSON-serializable, got "
        f"{type(obj).__name__}")


def cache_key(kind: str, **fields: Any) -> str:
    """SHA-256 key for one cell: ``kind`` + parameters + fingerprint."""
    return hashlib.sha256(key_material(kind, **fields).encode()) \
        .hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}

    def summary(self) -> str:
        return (f"{self.hits} hit{'s' if self.hits != 1 else ''}, "
                f"{self.misses} miss{'es' if self.misses != 1 else ''}")


@dataclass
class ResultCache:
    """Directory-backed JSON payload store addressed by cell key."""

    root: Path = field(default_factory=lambda: Path(
        os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)))
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)  # accept plain strings

    @classmethod
    def disabled(cls) -> "ResultCache":
        """A cache that never hits and never writes."""
        return cls(enabled=False)

    @classmethod
    def from_options(cls, cache_dir: str | Path | None = None,
                     no_cache: bool = False) -> "ResultCache":
        """Build from CLI-style options (``--cache-dir``/``--no-cache``)."""
        if no_cache:
            return cls.disabled()
        if cache_dir is not None:
            return cls(root=Path(cache_dir))
        return cls()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss — the caller
        recomputes and overwrites it.
        """
        if not self.enabled:
            self.stats.misses += 1
            return None
        try:
            with self._path(key).open() as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if not isinstance(payload, dict):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``.

        Failures to write (read-only filesystem, disk full) are
        swallowed: the cache is an accelerator, never a correctness
        dependency.
        """
        if not self.enabled:
            return
        target = self._path(key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(target.parent),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, sort_keys=True,
                              separators=(",", ":"))
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            return
        self.stats.writes += 1


# -- maintenance: stats and eviction -------------------------------------------
#
# The cache is content-addressed under an ever-moving code fingerprint,
# so entries from superseded fingerprints are pure garbage that nothing
# will ever read again — without eviction the store only grows.  The
# ``study cache`` subcommand exposes the two operations below.


@dataclass(frozen=True)
class CacheEntry:
    """One stored cell: its key, file, size, and modification time."""

    key: str
    path: Path
    size: int
    mtime: float


def _shard_files(root: str | Path, pattern: str) -> list[Path]:
    """Per-shard listing that tolerates directories vanishing
    mid-scan — a concurrent prune removes emptied shard directories,
    and a glob iterating into one would raise."""
    try:
        shards = list(Path(root).glob("??"))
    except OSError:
        return []
    files: list[Path] = []
    for shard in shards:
        try:
            files.extend(shard.glob(pattern))
        except OSError:
            continue
    return files


def scan_entries(root: str | Path) -> list[CacheEntry]:
    """Every payload file under ``root``, sorted oldest-first.

    Files that vanish mid-scan (a concurrent prune or writer) are
    skipped; ties on mtime break by key so the order is total.
    """
    entries = []
    for path in _shard_files(root, "*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append(CacheEntry(key=path.stem, path=path,
                                  size=stat.st_size,
                                  mtime=stat.st_mtime))
    entries.sort(key=lambda e: (e.mtime, e.key))
    return entries


def scan_strays(root: str | Path) -> list[Path]:
    """Leftover ``*.tmp`` files (a writer died between mkstemp and
    replace); harmless to readers but worth pruning."""
    return sorted(_shard_files(root, "*.tmp"))


def usage_stats(root: str | Path, *, now: float | None = None) -> dict:
    """JSON-able usage summary of the store under ``root``."""
    if now is None:
        now = time.time()
    entries = scan_entries(root)
    total = sum(e.size for e in entries)
    doc = {
        "root": str(root),
        "entries": len(entries),
        "total_bytes": total,
        "stray_tempfiles": len(scan_strays(root)),
        "current_fingerprint": code_fingerprint(),
    }
    if entries:
        doc["oldest_age_s"] = round(max(0.0, now - entries[0].mtime), 3)
        doc["newest_age_s"] = round(max(0.0, now - entries[-1].mtime), 3)
        doc["largest_bytes"] = max(e.size for e in entries)
    return doc


def prune(root: str | Path, *, max_age_s: float | None = None,
          max_total_bytes: int | None = None,
          now: float | None = None, dry_run: bool = False) -> dict:
    """Evict by age and/or total-size cap; returns what was done.

    Two passes: entries older than ``max_age_s`` go first, then —
    if the survivors still exceed ``max_total_bytes`` — oldest-first
    until the store fits (LRU by mtime: ``ResultCache.put`` refreshes
    mtime on overwrite, and hot entries get re-written by recompute
    after any fingerprint change).  Stray tempfiles are always
    removed.  ``dry_run`` reports without deleting.

    Concurrent pruners are expected, not an error: a file that
    vanished between the scan and the unlink was simply removed by a
    racing sweep, and is reported under ``already_gone`` rather than
    counted as this sweep's work (``removed``/``removed_bytes`` cover
    only entries *this* call deleted).
    """
    if max_age_s is None and max_total_bytes is None:
        raise ValueError(
            "prune needs max_age_s and/or max_total_bytes")
    if now is None:
        now = time.time()
    entries = scan_entries(root)
    doomed: list[CacheEntry] = []
    kept: list[CacheEntry] = []
    for entry in entries:
        if max_age_s is not None and now - entry.mtime > max_age_s:
            doomed.append(entry)
        else:
            kept.append(entry)
    if max_total_bytes is not None:
        kept_bytes = sum(e.size for e in kept)
        while kept and kept_bytes > max_total_bytes:
            entry = kept.pop(0)  # oldest survivor
            kept_bytes -= entry.size
            doomed.append(entry)
    strays = scan_strays(root)
    removed = removed_bytes = already_gone = 0
    if dry_run:
        removed = len(doomed)
        removed_bytes = sum(e.size for e in doomed)
    else:
        for entry in doomed:
            try:
                entry.path.unlink()
            except FileNotFoundError:
                already_gone += 1  # a racing pruner beat us to it
            except OSError:
                pass
            else:
                removed += 1
                removed_bytes += entry.size
        for stray in strays:
            try:
                stray.unlink()
            except OSError:
                pass
        # drop shard directories emptied by the eviction
        try:
            shards = list(Path(root).glob("??"))
        except OSError:
            shards = []
        for shard in shards:
            try:
                shard.rmdir()
            except OSError:
                pass
    return {
        "root": str(root),
        "dry_run": dry_run,
        "scanned": len(entries),
        "removed": removed,
        "removed_bytes": removed_bytes,
        "already_gone": already_gone,
        "removed_strays": len(strays),
        "kept": len(kept),
        "kept_bytes": sum(e.size for e in kept),
    }


__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "FINGERPRINT_SALT_ENV",
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
    "key_material",
    "prune",
    "scan_entries",
    "scan_strays",
    "usage_stats",
]
