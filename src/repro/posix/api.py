"""The traced, per-rank POSIX I/O surface.

Every method:

1. reads the rank clock (entry timestamp),
2. performs the operation against the shared :class:`VirtualFileSystem`,
3. charges a virtual-time cost (metadata ops a fixed latency; data ops a
   latency plus a per-byte term),
4. emits one :class:`~repro.tracer.events.TraceRecord` at the POSIX layer
   (with issuer attribution from the tracer's layer stack), and
5. yields a scheduler checkpoint so concurrent ranks interleave.

Faithfulness notes: ``read``/``write``/``fread``/``fwrite`` records carry
*no* offset — the analyzer reconstructs it per Section 5.1 of the paper —
but do carry ``gt_offset`` (simulator ground truth) which only tests may
read.  ``fopen``-family calls are recorded under their stdio names and act
as unbuffered wrappers; ``fflush`` records as a commit op, matching the
paper's commit test (footnote 2).
"""

from __future__ import annotations

from typing import Any

from repro.posix import flags as F
from repro.posix.fd import FdTable, OpenFileDescription
from repro.posix.vfs import StatResult, VirtualFileSystem, normalize
from repro.sim.engine import RankContext
from repro.tracer.events import Layer
from repro.tracer.recorder import Recorder

#: virtual seconds every traced call costs
IO_META_COST = 50e-6
#: virtual seconds per byte a data call moves, on top of the call cost
IO_BYTE_COST = 5e-9
#: the layer of every record this module emits
_LAYER = Layer.POSIX


class PosixAPI:
    """POSIX file API bound to one rank of a simulated run."""

    def __init__(self, vfs: VirtualFileSystem, ctx: RankContext,
                 recorder: Recorder | None = None):
        self.vfs = vfs
        self.ctx = ctx
        self.recorder = recorder
        self.rank = ctx.rank
        self.fds = FdTable()
        self.cwd = "/"
        self._fill_seq = 0
        self._clock = ctx.clock
        self._engine = ctx.engine

    # -- plumbing ---------------------------------------------------------------

    def _resolve(self, path: str) -> str:
        if not path.startswith("/"):
            base = self.cwd.rstrip("/")
            path = f"{base}/{path}"
        return normalize(path)

    def _trace(self, func: str, tstart: float, *, path: str | None = None,
               fd: int | None = None, offset: int | None = None,
               count: int | None = None, args: dict[str, Any] | None = None,
               result: Any = None, gt_offset: int | None = None,
               nbytes: int = 0) -> None:
        clock = self._clock
        clock.advance(IO_META_COST + nbytes * IO_BYTE_COST)
        recorder = self.recorder
        if recorder is not None:
            recorder.record(
                self.rank, _LAYER, func, tstart, clock.local_time,
                path=path, fd=fd, offset=offset, count=count, args=args,
                result=result, gt_offset=gt_offset)
        self._engine.checkpoint(self.rank)

    def payload(self, n: int) -> bytes:
        """Deterministic, per-rank-unique synthetic file content.

        Used by application proxies instead of real science data; distinct
        per (rank, call) so PFS-replay tests can tell stale data apart.
        """
        self._fill_seq += 1
        token = (self.rank * 131071 + self._fill_seq) % 251 + 1
        return bytes([token]) * n

    # -- open / close -----------------------------------------------------------------

    def open(self, path: str, open_flags: int, *, _func: str = "open",
             _stream: bool = False) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        prior = self.vfs.file_inode(p)
        existed = prior is not None
        size_before = prior.size if existed else 0
        inode = self.vfs.open_normalized(p, open_flags, t0)
        ofd = OpenFileDescription(p, inode, open_flags, stream=_stream)
        fd = self.fds.install(ofd)
        self._trace(_func, t0, path=p, fd=fd,
                    args={"flags": open_flags,
                          "flags_str": F.describe(open_flags),
                          "existed": existed,
                          "size_at_open": size_before if existed else 0},
                    result=fd)
        return fd

    def creat(self, path: str) -> int:
        return self.open(path, F.O_WRONLY | F.O_CREAT | F.O_TRUNC,
                         _func="creat")

    def close(self, fd: int, *, _func: str = "close") -> int:
        t0 = self._clock.local_time
        ofd = self.fds.remove(fd)
        if ofd.refcount == 0:
            self.vfs.release_inode(ofd.inode)
        self._trace(_func, t0, path=ofd.path, fd=fd, result=0)
        return 0

    def dup(self, fd: int) -> int:
        t0 = self._clock.local_time
        new_fd = self.fds.dup(fd)
        ofd = self.fds.get(new_fd)
        self._trace("dup", t0, path=ofd.path, fd=fd,
                    args={"newfd": new_fd}, result=new_fd)
        return new_fd

    # -- sequential data ops --------------------------------------------------------------

    def write(self, fd: int, data: "bytes | int", *,
              _func: str = "write") -> int:
        if isinstance(data, int):
            data = self.payload(data)
        buf = bytes(data)
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        ofd.check_writable()
        pos = ofd.inode.size if (ofd.flags & F.O_APPEND) else ofd.offset
        n = self.vfs.write_at(ofd.inode, pos, buf, t0)
        ofd.offset = pos + n
        self._trace(_func, t0, path=ofd.path, fd=fd, count=n,
                    gt_offset=pos, result=n, nbytes=n)
        return n

    def read(self, fd: int, count: int, *, _func: str = "read") -> bytes:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        ofd.check_readable()
        pos = ofd.offset
        data = self.vfs.read_at(ofd.inode, pos, count, t0)
        ofd.offset = pos + len(data)
        self._trace(_func, t0, path=ofd.path, fd=fd, count=len(data),
                    args={"requested": count}, gt_offset=pos,
                    result=len(data), nbytes=len(data))
        return data

    # -- positioned data ops ------------------------------------------------------------------

    def pwrite(self, fd: int, data: "bytes | int", offset: int) -> int:
        if isinstance(data, int):
            data = self.payload(data)
        buf = bytes(data)
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        ofd.check_writable()
        n = self.vfs.write_at(ofd.inode, offset, buf, t0)
        self._trace("pwrite", t0, path=ofd.path, fd=fd, offset=offset,
                    count=n, gt_offset=offset, result=n, nbytes=n)
        return n

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        ofd.check_readable()
        data = self.vfs.read_at(ofd.inode, offset, count, t0)
        self._trace("pread", t0, path=ofd.path, fd=fd, offset=offset,
                    count=len(data), args={"requested": count},
                    gt_offset=offset, result=len(data), nbytes=len(data))
        return data

    # -- seeking -----------------------------------------------------------------------------------

    def lseek(self, fd: int, offset: int, whence: int = F.SEEK_SET, *,
              _func: str = "lseek") -> int:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        if whence == F.SEEK_SET:
            new = offset
        elif whence == F.SEEK_CUR:
            new = ofd.offset + offset
        elif whence == F.SEEK_END:
            new = ofd.inode.size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if new < 0:
            raise ValueError(f"seek to negative offset {new}")
        ofd.offset = new
        self._trace(_func, t0, path=ofd.path, fd=fd,
                    args={"offset": offset, "whence": whence}, result=new)
        return new

    # -- sync / truncate -----------------------------------------------------------------------------

    def fsync(self, fd: int, *, _func: str = "fsync") -> int:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        self._trace(_func, t0, path=ofd.path, fd=fd, result=0)
        return 0

    def fdatasync(self, fd: int) -> int:
        return self.fsync(fd, _func="fdatasync")

    def ftruncate(self, fd: int, length: int) -> int:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        ofd.check_writable()
        self.vfs._truncate_inode(ofd.inode, length, t0)
        self._trace("ftruncate", t0, path=ofd.path, fd=fd,
                    args={"length": length}, result=0)
        return 0

    def truncate(self, path: str, length: int) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        self.vfs.truncate(p, length, t0)
        self._trace("truncate", t0, path=p, args={"length": length},
                    result=0)
        return 0

    # -- stdio (FILE*) wrappers ----------------------------------------------------------------------

    def fopen(self, path: str, mode: str) -> int:
        return self.open(path, F.fopen_mode_to_flags(mode), _func="fopen",
                         _stream=True)

    def fwrite(self, fd: int, data: "bytes | int") -> int:
        return self.write(fd, data, _func="fwrite")

    def fread(self, fd: int, count: int) -> bytes:
        return self.read(fd, count, _func="fread")

    def fseek(self, fd: int, offset: int, whence: int = F.SEEK_SET) -> int:
        return self.lseek(fd, offset, whence, _func="fseek")

    def fflush(self, fd: int) -> int:
        return self.fsync(fd, _func="fflush")

    def fclose(self, fd: int) -> int:
        return self.close(fd, _func="fclose")

    # -- metadata / utility operations (the Figure 3 inventory) ----------------------------------------

    def stat(self, path: str) -> StatResult:
        p = self._resolve(path)
        t0 = self._clock.local_time
        st = self.vfs.stat_normalized(p)
        self._trace("stat", t0, path=p, result=st.st_size)
        return st

    def lstat(self, path: str) -> StatResult:
        p = self._resolve(path)
        t0 = self._clock.local_time
        st = self.vfs.stat_normalized(p)
        self._trace("lstat", t0, path=p, result=st.st_size)
        return st

    def fstat(self, fd: int) -> StatResult:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        st = self.vfs.stat_inode(ofd.inode)
        self._trace("fstat", t0, path=ofd.path, fd=fd, result=st.st_size)
        return st

    def access(self, path: str) -> bool:
        p = self._resolve(path)
        t0 = self._clock.local_time
        ok = self.vfs.exists_normalized(p)
        self._trace("access", t0, path=p, result=ok)
        return ok

    def unlink(self, path: str) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        self.vfs.unlink_normalized(p)
        self._trace("unlink", t0, path=p, result=0)
        return 0

    def remove(self, path: str) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        self.vfs.unlink_normalized(p)
        self._trace("remove", t0, path=p, result=0)
        return 0

    def rename(self, old: str, new: str) -> int:
        src = self._resolve(old)
        dst = self._resolve(new)
        t0 = self._clock.local_time
        self.vfs.rename(src, dst)
        self._trace("rename", t0, path=src, args={"to": dst}, result=0)
        return 0

    def mkdir(self, path: str) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        if not self.vfs.is_dir(p):
            self.vfs.mkdir(p)
        self._trace("mkdir", t0, path=p, result=0)
        return 0

    def rmdir(self, path: str) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        self.vfs.rmdir(p)
        self._trace("rmdir", t0, path=p, result=0)
        return 0

    def getcwd(self) -> str:
        t0 = self._clock.local_time
        self._trace("getcwd", t0, path=self.cwd, result=self.cwd)
        return self.cwd

    def chdir(self, path: str) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        if not self.vfs.is_dir(p):
            from repro.errors import PosixError
            import errno as _errno
            raise PosixError(_errno.ENOTDIR, f"{p!r} is not a directory", p)
        self.cwd = p
        self._trace("chdir", t0, path=p, result=0)
        return 0

    def opendir(self, path: str) -> list[str]:
        p = self._resolve(path)
        t0 = self._clock.local_time
        entries = self.vfs.listdir(p)
        self._trace("opendir", t0, path=p, result=len(entries))
        return entries

    def readdir(self, path: str) -> list[str]:
        p = self._resolve(path)
        t0 = self._clock.local_time
        entries = self.vfs.listdir(p)
        self._trace("readdir", t0, path=p, result=len(entries))
        return entries

    def closedir(self, path: str) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        self._trace("closedir", t0, path=p, result=0)
        return 0

    def fcntl(self, fd: int, cmd: str) -> int:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        self._trace("fcntl", t0, path=ofd.path, fd=fd,
                    args={"cmd": cmd}, result=0)
        return 0

    def chmod(self, path: str, mode: int) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        self.vfs.chmod(p, mode, t0)
        self._trace("chmod", t0, path=p, args={"mode": mode}, result=0)
        return 0

    def utime(self, path: str, atime: float, mtime: float) -> int:
        p = self._resolve(path)
        t0 = self._clock.local_time
        self.vfs.utime(p, atime, mtime)
        self._trace("utime", t0, path=p,
                    args={"atime": atime, "mtime": mtime}, result=0)
        return 0

    def link(self, existing: str, new: str) -> int:
        src = self._resolve(existing)
        dst = self._resolve(new)
        t0 = self._clock.local_time
        self.vfs.link(src, dst)
        self._trace("link", t0, path=src, args={"to": dst}, result=0)
        return 0

    def symlink(self, target: str, linkpath: str) -> int:
        dst = self._resolve(linkpath)
        t0 = self._clock.local_time
        self.vfs.symlink(target, dst)
        self._trace("symlink", t0, path=dst,
                    args={"target": target}, result=0)
        return 0

    def readlink(self, path: str) -> str:
        p = self._resolve(path)
        t0 = self._clock.local_time
        target = self.vfs.readlink(p)
        self._trace("readlink", t0, path=p, result=target)
        return target

    def mmap(self, fd: int, length: int, offset: int = 0) -> bytes:
        """Map a region: modelled as a traced bulk read."""
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        data = self.vfs.read_at(ofd.inode, offset, length, t0)
        self._trace("mmap", t0, path=ofd.path, fd=fd, offset=offset,
                    count=length, result=len(data), nbytes=len(data))
        return data

    def msync(self, fd: int) -> int:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        self._trace("msync", t0, path=ofd.path, fd=fd, result=0)
        return 0

    def umask(self, mask: int) -> int:
        t0 = self._clock.local_time
        self._trace("umask", t0, args={"mask": mask}, result=0)
        return 0

    def fileno(self, fd: int) -> int:
        t0 = self._clock.local_time
        ofd = self.fds.get(fd)
        self._trace("fileno", t0, path=ofd.path, fd=fd, result=fd)
        return fd
