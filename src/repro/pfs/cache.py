"""Client-side write aggregation and read-ahead (paper §6.2).

    "These results clearly indicate that PFS performance can be improved
    by read-ahead or by aggregating delayed writes, both at the client
    and at the server side."

This module models the client side of that claim:

* **write-back aggregation** — consecutive writes to a file coalesce in
  a per-file buffer and go to the data servers as one large transfer
  when the stream breaks (non-contiguous write), the buffer fills, or
  the file is committed/closed;
* **read-ahead** — a read that continues the previous one fetches extra
  bytes; later reads inside the prefetched window are cache hits that
  skip the server round trip.

The cache changes *timing only*: byte contents are always resolved by
the :class:`~repro.pfs.storage.FileStore` at access time, so the
consistency engines stay authoritative.  Benchmarks show the paper's
shape: consecutive-pattern applications gain a lot, random patterns
little.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import registry as obs


@dataclass
class CacheStats:
    write_requests: int = 0     # application writes seen
    flushes: int = 0            # transfers actually sent to servers
    bytes_buffered: int = 0
    read_requests: int = 0
    read_hits: int = 0
    prefetched_bytes: int = 0
    drops: int = 0              # buffers lost to injected faults
    dropped_bytes: int = 0

    @property
    def write_aggregation_factor(self) -> float:
        """Application writes per server transfer (1.0 = no benefit)."""
        return self.write_requests / self.flushes if self.flushes else 0.0


@dataclass
class _WriteBuffer:
    start: int
    data: bytearray


@dataclass
class ClientCache:
    """Per-client write-back buffer + read-ahead window."""

    writeback_limit: int = 1 << 20
    readahead: int = 1 << 16
    stats: CacheStats = field(default_factory=CacheStats)
    _buffers: dict[str, _WriteBuffer] = field(default_factory=dict)
    #: per-file prefetch window [start, stop) and last sequential end
    _windows: dict[str, tuple[int, int]] = field(default_factory=dict)
    _last_read_end: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        reg = obs.current()
        self._obs_writes = reg.counter("pfs.cache.write_requests")
        self._obs_flushes = reg.counter("pfs.cache.flushes")
        self._obs_hits = reg.counter("pfs.cache.read_hits")
        self._obs_misses = reg.counter("pfs.cache.read_misses")
        self._obs_prefetched = reg.counter("pfs.cache.prefetched_bytes")
        self._obs_drops = reg.counter("pfs.cache.drops")
        self._obs_dropped_bytes = reg.counter("pfs.cache.dropped_bytes")

    # -- write side ------------------------------------------------------------

    def write(self, path: str, offset: int,
              nbytes: int) -> list[tuple[int, int]]:
        """Buffer one write; returns (offset, nbytes) segments that must
        be transferred to the servers *now*."""
        self.stats.write_requests += 1
        self.stats.bytes_buffered += nbytes
        self._obs_writes.inc()
        out: list[tuple[int, int]] = []
        buf = self._buffers.get(path)
        if buf is not None and offset == buf.start + len(buf.data):
            buf.data.extend(b"\x00" * nbytes)
        else:
            if buf is not None:
                out.append(self._pop(path))
            self._buffers[path] = _WriteBuffer(offset,
                                               bytearray(nbytes))
        buf = self._buffers[path]
        if len(buf.data) >= self.writeback_limit:
            out.append(self._pop(path))
        return out

    def _pop(self, path: str) -> tuple[int, int]:
        buf = self._buffers.pop(path)
        self.stats.flushes += 1
        self._obs_flushes.inc()
        return (buf.start, len(buf.data))

    def flush(self, path: str | None = None) -> list[tuple[int, int]]:
        """Force out buffered data (commit/close path)."""
        paths = [path] if path is not None else list(self._buffers)
        return [self._pop(p) for p in paths if p in self._buffers]

    @property
    def dirty_paths(self) -> list[str]:
        return sorted(self._buffers)

    def drop(self) -> list[tuple[str, int, int]]:
        """Lose every dirty buffer without flushing (injected node
        failure): returns the (path, offset, nbytes) segments that will
        now never reach a server."""
        lost = [(p, buf.start, len(buf.data))
                for p, buf in sorted(self._buffers.items())]
        self._buffers.clear()
        self.stats.drops += len(lost)
        self.stats.dropped_bytes += sum(n for _, _, n in lost)
        self._obs_drops.inc(len(lost))
        self._obs_dropped_bytes.inc(sum(n for _, _, n in lost))
        return lost

    # -- read side ----------------------------------------------------------------

    def read(self, path: str, offset: int,
             nbytes: int) -> tuple[int, int] | None:
        """Returns the (offset, nbytes) segment to fetch from the
        servers, or None for a cache hit.  Sequential reads extend the
        fetch by the read-ahead amount and remember the window."""
        self.stats.read_requests += 1
        window = self._windows.get(path)
        if window is not None and window[0] <= offset \
                and offset + nbytes <= window[1]:
            self.stats.read_hits += 1
            self._obs_hits.inc()
            return None
        self._obs_misses.inc()
        sequential = self._last_read_end.get(path) == offset
        self._last_read_end[path] = offset + nbytes
        extra = self.readahead if sequential else 0
        self.stats.prefetched_bytes += extra
        self._obs_prefetched.inc(extra)
        self._windows[path] = (offset, offset + nbytes + extra)
        return (offset, nbytes + extra)

    def invalidate(self, path: str | None = None) -> None:
        """Drop read windows (e.g. on open, for close-to-open checks)."""
        if path is None:
            self._windows.clear()
            self._last_read_end.clear()
        else:
            self._windows.pop(path, None)
            self._last_read_end.pop(path, None)
