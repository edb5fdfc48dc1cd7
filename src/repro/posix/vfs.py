"""The in-memory single-image file system (ground truth / "Lustre" role).

The VFS is deliberately strict about POSIX rules the analyses depend on:
parent directories must exist, ``O_EXCL`` fails on existing files,
``O_APPEND`` writes always land at end-of-file, writes past EOF zero-fill
holes, and unlinked-but-open inodes stay readable until the last handle
drops.  It knows nothing about ranks, time, or tracing — that is
:class:`repro.posix.api.PosixAPI`'s job.

Methods take raw paths and :func:`normalize` them, except the
``*_normalized`` entry points (and :meth:`VirtualFileSystem.file_inode`),
which take a path :func:`normalize` already returned, so that a POSIX
call normalizes its path once.
"""

from __future__ import annotations

import errno
import posixpath
from dataclasses import dataclass

from repro.errors import PosixError
from repro.obs import registry as obs
from repro.posix import flags as F


@dataclass(frozen=True)
class StatResult:
    """Subset of ``struct stat`` that scientific I/O stacks actually read."""

    st_size: int
    st_mtime: float
    st_atime: float
    st_ctime: float
    st_mode: int
    st_nlink: int
    st_ino: int
    is_dir: bool


class _Inode:
    __slots__ = ("ino", "data", "mtime", "atime", "ctime", "mode",
                 "nlink", "refs", "symlink_target")

    def __init__(self, ino: int, mode: int = 0o644):
        self.ino = ino
        self.data = bytearray()
        self.mtime = 0.0
        self.atime = 0.0
        self.ctime = 0.0
        self.mode = mode
        self.nlink = 1
        self.refs = 0  # open handles
        self.symlink_target: str | None = None

    @property
    def size(self) -> int:
        return len(self.data)


def normalize(path: str) -> str:
    """Canonical absolute path ('/' rooted, no trailing slash, no '..')."""
    if not path:
        raise PosixError(errno.ENOENT, "empty path")
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    return norm


class VirtualFileSystem:
    """Single global namespace of directories and regular files."""

    def __init__(self) -> None:
        self._files: dict[str, _Inode] = {}
        self._dirs: set[str] = {"/"}
        self._next_ino = 1
        # dirty-extent churn accounting (no-ops when metrics are off)
        reg = obs.current()
        self._obs_writes = reg.counter("posix.vfs.writes")
        self._obs_reads = reg.counter("posix.vfs.reads")
        self._obs_dirty_bytes = reg.counter("posix.vfs.dirty_bytes")
        self._obs_bytes_read = reg.counter("posix.vfs.bytes_read")
        self._obs_hole_bytes = reg.counter("posix.vfs.hole_fill_bytes")
        self._obs_truncates = reg.counter("posix.vfs.truncates")
        self._obs_inodes = reg.gauge("posix.vfs.inodes")

    # -- namespace helpers ------------------------------------------------------

    def _parent_ok(self, path: str) -> None:
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            raise PosixError(errno.ENOENT,
                             f"parent directory {parent!r} does not exist",
                             path)

    def exists(self, path: str) -> bool:
        return self.exists_normalized(normalize(path))

    def exists_normalized(self, p: str) -> bool:
        return p in self._files or p in self._dirs

    def is_dir(self, path: str) -> bool:
        return normalize(path) in self._dirs

    def is_file(self, path: str) -> bool:
        return normalize(path) in self._files

    def listdir(self, path: str) -> list[str]:
        p = normalize(path)
        if p not in self._dirs:
            raise PosixError(errno.ENOTDIR, f"{p!r} is not a directory", p)
        prefix = p.rstrip("/") + "/"
        names = set()
        for candidate in list(self._files) + list(self._dirs):
            if candidate != p and candidate.startswith(prefix):
                rest = candidate[len(prefix):]
                names.add(rest.split("/", 1)[0])
        return sorted(names)

    def mkdir(self, path: str) -> None:
        p = normalize(path)
        if p in self._dirs or p in self._files:
            raise PosixError(errno.EEXIST, f"{p!r} already exists", p)
        self._parent_ok(p)
        self._dirs.add(p)

    def makedirs(self, path: str) -> None:
        """Create a directory and any missing ancestors (idempotent)."""
        p = normalize(path)
        parts = [x for x in p.split("/") if x]
        cur = ""
        for part in parts:
            cur = cur + "/" + part
            if cur in self._files:
                raise PosixError(errno.ENOTDIR,
                                 f"{cur!r} is a file, not a directory", cur)
            self._dirs.add(cur)

    def rmdir(self, path: str) -> None:
        p = normalize(path)
        if p == "/":
            raise PosixError(errno.EBUSY, "cannot remove root", p)
        if p not in self._dirs:
            raise PosixError(errno.ENOTDIR, f"{p!r} is not a directory", p)
        if self.listdir(p):
            raise PosixError(errno.ENOTEMPTY, f"{p!r} is not empty", p)
        self._dirs.discard(p)

    # -- file lifecycle -------------------------------------------------------------

    def lookup(self, path: str) -> _Inode:
        return self._lookup(normalize(path))

    def _lookup(self, p: str) -> _Inode:
        inode = self._files.get(p)
        if inode is None:
            kind = "directory" if p in self._dirs else "missing"
            raise PosixError(errno.EISDIR if kind == "directory"
                             else errno.ENOENT,
                             f"{p!r} is {kind}", p)
        return inode

    def file_inode(self, p: str) -> _Inode | None:
        """The inode of the regular file at ``p``, or ``None``."""
        return self._files.get(p)

    def open_inode(self, path: str, open_flags: int, now: float) -> _Inode:
        """Resolve/create the inode per O_CREAT/O_EXCL/O_TRUNC rules."""
        return self.open_normalized(normalize(path), open_flags, now)

    def open_normalized(self, p: str, open_flags: int,
                        now: float) -> _Inode:
        if p in self._dirs:
            raise PosixError(errno.EISDIR, f"{p!r} is a directory", p)
        inode = self._files.get(p)
        if inode is None:
            if not (open_flags & F.O_CREAT):
                raise PosixError(errno.ENOENT, f"{p!r} does not exist", p)
            self._parent_ok(p)
            inode = _Inode(self._next_ino)
            self._next_ino += 1
            inode.ctime = inode.mtime = inode.atime = now
            self._files[p] = inode
            self._obs_inodes.set_max(self._next_ino - 1)
        else:
            if (open_flags & F.O_CREAT) and (open_flags & F.O_EXCL):
                raise PosixError(errno.EEXIST, f"{p!r} exists (O_EXCL)", p)
            if (open_flags & F.O_TRUNC) and F.writable(open_flags):
                del inode.data[:]
                inode.mtime = now
        inode.refs += 1
        return inode

    def release_inode(self, inode: _Inode) -> None:
        inode.refs -= 1

    def unlink(self, path: str) -> None:
        self.unlink_normalized(normalize(path))

    def unlink_normalized(self, p: str) -> None:
        if p in self._dirs:
            raise PosixError(errno.EISDIR, f"{p!r} is a directory", p)
        inode = self._files.pop(p, None)
        if inode is None:
            raise PosixError(errno.ENOENT, f"{p!r} does not exist", p)
        inode.nlink -= 1

    def rename(self, old: str, new: str) -> None:
        src = normalize(old)
        dst = normalize(new)
        inode = self._files.get(src)
        if inode is None:
            raise PosixError(errno.ENOENT, f"{src!r} does not exist", src)
        self._parent_ok(dst)
        if dst in self._dirs:
            raise PosixError(errno.EISDIR, f"{dst!r} is a directory", dst)
        self._files.pop(src)
        self._files[dst] = inode

    def truncate(self, path: str, length: int, now: float) -> None:
        inode = self.lookup(path)
        self._truncate_inode(inode, length, now)

    def _truncate_inode(self, inode: _Inode, length: int, now: float) -> None:
        if length < 0:
            raise PosixError(errno.EINVAL, f"negative length {length}")
        self._obs_truncates.inc()
        if length < inode.size:
            del inode.data[length:]
        elif length > inode.size:
            self._obs_hole_bytes.inc(length - inode.size)
            inode.data.extend(b"\x00" * (length - inode.size))
        inode.mtime = now

    # -- data plane ---------------------------------------------------------------------

    def write_at(self, inode: _Inode, offset: int, data: bytes,
                 now: float) -> int:
        """Write ``data`` at ``offset``, zero-filling any hole before it;
        each byte is copied once."""
        if offset < 0:
            raise PosixError(errno.EINVAL, f"negative offset {offset}")
        buf = inode.data
        hole = offset - len(buf)
        if hole > 0:
            self._obs_hole_bytes.inc(hole)
            buf.extend(bytes(hole))
        buf[offset:offset + len(data)] = data
        inode.mtime = now
        self._obs_writes.inc()
        self._obs_dirty_bytes.inc(len(data))
        return len(data)

    def read_at(self, inode: _Inode, offset: int, count: int,
                now: float) -> bytes:
        """Up to ``count`` bytes from ``offset``, copied once."""
        if offset < 0:
            raise PosixError(errno.EINVAL, f"negative offset {offset}")
        if count < 0:
            raise PosixError(errno.EINVAL, f"negative count {count}")
        inode.atime = now
        out = memoryview(inode.data)[offset:offset + count].tobytes()
        self._obs_reads.inc()
        self._obs_bytes_read.inc(len(out))
        return out

    def link(self, existing: str, new: str) -> None:
        """Hard link: both names resolve to the same inode."""
        src = normalize(existing)
        dst = normalize(new)
        inode = self.lookup(src)
        if self.exists(dst):
            raise PosixError(errno.EEXIST, f"{dst!r} already exists", dst)
        self._parent_ok(dst)
        inode.nlink += 1
        self._files[dst] = inode

    def symlink(self, target: str, linkpath: str) -> None:
        """Symbolic link holding ``target`` (not resolved on access;
        the simulator treats symlinks as metadata-only objects)."""
        dst = normalize(linkpath)
        if self.exists(dst):
            raise PosixError(errno.EEXIST, f"{dst!r} already exists", dst)
        self._parent_ok(dst)
        inode = _Inode(self._next_ino, mode=0o777)
        self._next_ino += 1
        inode.symlink_target = target
        self._files[dst] = inode

    def readlink(self, path: str) -> str:
        inode = self.lookup(path)
        if inode.symlink_target is None:
            raise PosixError(errno.EINVAL,
                             f"{path!r} is not a symlink", path)
        return inode.symlink_target

    def chmod(self, path: str, mode: int, now: float) -> None:
        inode = self.lookup(path)
        inode.mode = mode & 0o7777
        inode.ctime = now

    def utime(self, path: str, atime: float, mtime: float) -> None:
        inode = self.lookup(path)
        inode.atime = atime
        inode.mtime = mtime

    # -- metadata --------------------------------------------------------------------------

    def stat(self, path: str) -> StatResult:
        return self.stat_normalized(normalize(path))

    def stat_normalized(self, p: str) -> StatResult:
        if p in self._dirs:
            return StatResult(st_size=0, st_mtime=0.0, st_atime=0.0,
                              st_ctime=0.0, st_mode=0o755, st_nlink=2,
                              st_ino=0, is_dir=True)
        return self.stat_inode(self._lookup(p))

    @staticmethod
    def stat_inode(inode: _Inode) -> StatResult:
        return StatResult(st_size=inode.size, st_mtime=inode.mtime,
                          st_atime=inode.atime, st_ctime=inode.ctime,
                          st_mode=inode.mode, st_nlink=inode.nlink,
                          st_ino=inode.ino, is_dir=False)

    # -- test/debug helpers -----------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Whole-file contents (test helper, not a traced operation)."""
        return bytes(self.lookup(path).data)

    def file_size(self, path: str) -> int:
        return self.lookup(path).size

    def snapshot(self) -> dict[str, bytes]:
        """Copy of every file's contents keyed by path."""
        return {p: bytes(i.data) for p, i in sorted(self._files.items())}

    @property
    def file_paths(self) -> list[str]:
        return sorted(self._files)
