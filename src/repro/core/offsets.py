"""Offset reconstruction (paper Section 5.1).

``pwrite``/``pread`` carry their offset; ``write``/``read``/``fwrite``/
``fread`` do not, so the analyzer replays the trace and maintains, per
*open file description*, "the most up-to-date offset for each file":

* ``open``-family sets the offset to 0, applies ``O_TRUNC`` to the
  tracked size, and flags ``O_APPEND`` descriptions (whose writes land at
  the tracked end of file);
* ``lseek``/``fseek`` apply ``SEEK_SET``/``SEEK_CUR``/``SEEK_END``;
* data operations advance the offset by the byte count;
* ``dup`` aliases a descriptor to the same description (shared offset);
* ``truncate``/``ftruncate`` update the tracked size.

The tracked size is global per path, updated in global timestamp order —
valid for traces whose shared-file appends are synchronized, which the
race-freedom assumption (§5.2) already requires.  ``size_at_open`` from
the open record seeds sizes of files that predate the trace.

The reconstruction never reads the simulator's ``gt_offset`` ground
truth; tests compare against it instead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.posix import flags as F
from repro.tracer.columnar import I64_NONE, LAYER_TABLE, ColumnarTrace
from repro.tracer.events import (
    CLOSE_OPS,
    OPEN_OPS,
    READ_OPS,
    SEEK_OPS,
    WRITE_OPS,
)
from repro.tracer.trace import Trace
from repro.core.records import AccessList, AccessTable, sorted_by_file


def reconstruct_offsets(trace: Trace, *, strict: bool = True
                        ) -> AccessList:
    """Resolve every POSIX data record of ``trace`` to a byte extent.

    The accesses come back as a ``by_file`` :class:`AccessList`: files
    in path order, each file's accesses in ``(tstart, rid)`` order, the
    order of :attr:`FileTables.whole <repro.core.records.FileTables>`,
    so :func:`~repro.core.records.group_by_path` only finds where each
    file's rows start.  A caller that walks the accesses in time order
    sorts them by ``(tstart, rid)`` itself.  Only POSIX rows are
    consumed, in row order, so the shared size model sees operations in
    global order.  With ``strict`` a data op or seek on an untracked
    descriptor raises :class:`TraceError`, and so does a
    ``pwrite``/``pread`` on an fd that no open of its rank returned
    when the rank has an open record; otherwise the op is skipped
    (useful for partial traces).
    """
    return _solve(trace.columnar, strict)


def reconstruct_tables_columnar(ct: ColumnarTrace, *, strict: bool = True,
                                ) -> dict[str, AccessTable]:
    """The per-file access tables of a columnar trace."""
    return _solve(ct, strict).tables


# -- the solve ---------------------------------------------------------------------
#
# The array pass runs the state machine as whole-column passes:
#
# * descriptor streams: rows are grouped per (rank, fd) with one stable
#   sort of a composite key, 16 bits wide when it fits (numpy sorts
#   those by radix); each open starts a new generation, and the current
#   position inside a generation is a "reset + cumulative sum" —
#   seeks/opens/append-writes contribute absolute bases, sequential
#   reads/writes contribute count deltas, and position(j) =
#   base[last reset <= j] + (cumdelta[j] - cumdelta[last reset]);
# * O_APPEND landing offsets come from per-path size streams built the
#   same way (O_TRUNC opens reset to zero, ``size_at_open`` seeds the
#   first generation, append writes grow by their count);
# * dup aliasing, SEEK_END, truncates entangled with appends, untracked
#   descriptors and non-strict skipping fall back to :func:`_replay`, the
#   same state machine one row at a time.  A property test pins both to
#   the record-object oracle in ``tests/core/reference.py``.

_OTHER, _OPEN, _CLOSE, _DUP, _SEEK, _TRUNC, _FTRUNC, _RD, _WR = range(9)

#: promoted ``args`` keys the solve consumes, with their columns; a
#: value for one of these living only in the ``extras`` side table
#: (escape-encoded bool / sentinel-valued / out-of-range int) reads as
#: "absent" from the integer column, so the array pass must fall back
#: to the replay, which reads the side table too
_STRUCTURAL_ARGS = {"flags": "flags", "whence": "whence",
                    "offset": "arg_offset", "length": "length",
                    "newfd": "newfd", "size_at_open": "size_at_open"}
_STRUCTURAL_KEYS = frozenset(_STRUCTURAL_ARGS)


class _ColumnarFallback(Exception):
    """Internal: this trace needs the sequential replay."""


#: op class of each function family, first match wins
_CLASSES = ((OPEN_OPS, _OPEN), (CLOSE_OPS, _CLOSE), ({"dup"}, _DUP),
            (SEEK_OPS, _SEEK), ({"truncate"}, _TRUNC),
            ({"ftruncate"}, _FTRUNC), (READ_OPS, _RD), (WRITE_OPS, _WR))
#: the op class of each function name (later families first, so the
#: first match overwrites them)
_CLASS_OF = {name: code for ops, code in reversed(_CLASSES) for name in ops}


def _func_class_lut(funcs: list[str]) -> np.ndarray:
    """Map the (tiny) interned function table to op-class codes."""
    return np.array([_CLASS_OF.get(name, _OTHER) for name in funcs],
                    dtype=np.int8)


def _solve(ct: ColumnarTrace, strict: bool) -> AccessList:
    """Both passes end here.  Each returns the resolved rows in trace
    order; the sort by file keeps that order within each file, and each
    access column is then gathered once from the trace's columns."""
    try:
        if not strict:
            raise _ColumnarFallback
        rows, start, path_id = _reconstruct_vectorized(ct)
    except _ColumnarFallback:
        rows, start, path_id = _replay(ct, strict)
    c = ct.columns
    writes = _func_class_lut(ct.funcs) == _WR

    def gather(order: np.ndarray) -> dict[str, np.ndarray]:
        row = rows[order]
        offset = start[order]
        fd = c["fd"][row]
        func_id = c["func_id"][row]
        return {
            # a resolved access has a byte count, and it is positive
            "rid": c["rid"][row], "rank": c["rank"][row], "offset": offset,
            "stop": offset + c["count"][row], "is_write": writes[func_id],
            "tstart": c["tstart"][row], "tend": c["tend"][row],
            "fd": np.where(fd == I64_NONE, -1, fd), "func_id": func_id,
            "issuer_id": c["issuer_id"][row]}

    return sorted_by_file(ct.paths, path_id, gather, ct.funcs, LAYER_TABLE)


def _reconstruct_vectorized(ct):
    """The array pass: ``(rows, start, path_id)`` of every resolved
    access with a non-zero count, in trace order, or
    :class:`_ColumnarFallback`."""
    c = ct.columns
    mask = ct.posix_mask()
    npx = int(np.count_nonzero(mask))
    if npx == 0:
        return (np.empty(0, np.int64),) * 3
    # structurally relevant args escape-encoded into the side table are
    # invisible to the integer columns: sequential replay territory
    for row, extra in ct.extras.items():
        if not _STRUCTURAL_KEYS.isdisjoint(extra) and mask[row]:
            raise _ColumnarFallback
    idx = np.flatnonzero(mask)
    every = npx == mask.size

    def take(name: str, at: np.ndarray | None = None) -> np.ndarray:
        """A column over the POSIX rows (all-POSIX: zero-copy), or at
        the POSIX rows ``at``."""
        column = c[name]
        if at is None:
            return column if every else column[idx]
        return column[at if every else idx[at]]

    lut = _func_class_lut(ct.funcs)
    kinds = set(lut.tolist())
    cls_ = lut[take("func_id")]
    rank = take("rank")
    fd = take("fd")
    path_id = take("path_id")
    offset = take("offset")
    count = take("count")
    # I64_NONE is the sign bit alone, so each flag test below reads a
    # missing flags value as no flags at all
    flags = take("flags")

    is_open = cls_ == _OPEN
    is_seek = cls_ == _SEEK
    is_write_op = cls_ == _WR
    is_data = is_write_op | (cls_ == _RD)
    explicit = is_data & (offset != I64_NONE)
    implicit = is_data & ~explicit
    count_eff = np.where(count == I64_NONE, 0, count)
    opens = np.flatnonzero(is_open)
    truncs = (np.flatnonzero((cls_ == _TRUNC) | (cls_ == _FTRUNC))
              if {_TRUNC, _FTRUNC} & kinds else np.empty(0, np.intp))
    negative = count_eff < 0

    # features that need the sequential replay (or its exact errors)
    if ((_DUP in kinds and bool(np.any(cls_ == _DUP)))
            or bool(np.any(path_id[opens] < 0))
            or bool(np.any(explicit & (path_id < 0)))
            or (truncs.size and (
                bool(np.any((cls_[truncs] == _TRUNC)
                            & (path_id[truncs] < 0)))
                or bool(np.any(take("length", truncs) == I64_NONE))))
            or (negative.any() and bool(np.any(is_data & negative)))):
        raise _ColumnarFallback
    # an explicit-offset op names an fd an open of its rank returned;
    # when one does not, the strict replay names the record
    named = np.flatnonzero(explicit)
    if not _opened_by_rank(rank, fd, opens,
                           named[fd[named] != I64_NONE]):
        raise _ColumnarFallback

    # -- descriptor streams: group rows per (rank, fd), time-ordered --
    s = np.flatnonzero(is_open | (cls_ == _CLOSE) | is_seek | implicit)
    key = _stream_key(rank[s], fd[s])
    order = np.argsort(key, kind="stable")
    so = s[order]
    m = so.size
    pos_m = np.arange(m)
    g_cls = cls_[so]
    g_open = g_cls == _OPEN
    g_seek = g_cls == _SEEK
    g_write = g_cls == _WR
    g_impl = g_write | (g_cls == _RD)  # a stream's data rows: implicit
    g_key = key[order]
    new_grp = np.ones(m, dtype=bool)
    new_grp[1:] = g_key[1:] != g_key[:-1]
    grp_start = np.maximum.accumulate(np.where(new_grp, pos_m, 0))
    last_open = np.maximum.accumulate(np.where(g_open, pos_m, -1))
    last_close = np.maximum.accumulate(np.where(g_cls == _CLOSE, pos_m,
                                                -1))
    open_ok = last_open >= grp_start
    if bool(np.any((g_seek | g_impl)
                   & (~open_ok | (last_close > last_open)))):
        raise _ColumnarFallback  # untracked fd: strict replay raises
    # so each seek and data row follows an open of its own stream, with
    # no close in between

    seek_at = np.flatnonzero(g_seek)
    whence = take("whence", so[seek_at])
    seek_to = take("arg_offset", so[seek_at])
    seek_set = whence == F.SEEK_SET
    if (bool(np.any(~seek_set & (whence != F.SEEK_CUR)))
            or bool(np.any(seek_to == I64_NONE))):
        raise _ColumnarFallback  # SEEK_END, an unknown or missing whence

    open_row = so[np.maximum(last_open, 0)]  # the generation's open
    stream_path = path_id[open_row]
    stream_append = (flags[open_row] & F.O_APPEND) != 0
    g_appw = g_impl & g_write & stream_append

    # -- O_APPEND size streams (global, per path) --
    append_opens = opens[(flags[opens] & F.O_APPEND) != 0]
    g_cnt = count_eff[so]
    appw_land = np.empty(0, np.int64)
    if append_opens.size:
        append_paths = np.unique(path_id[append_opens])
        appending = np.isin(path_id, append_paths)
        entangled = (
            bool(np.any(is_write_op & explicit & appending))
            or bool(np.any(g_impl & g_write & ~stream_append
                           & np.isin(stream_path, append_paths)))
            or bool(truncs.size))
        if entangled:
            raise _ColumnarFallback
        appw_land = _append_landings(
            opens[appending[opens]], so[g_appw], path_id,
            stream_path[g_appw], flags, take("size_at_open"), count_eff)

    # -- positions inside each descriptor generation (reset + cumsum) --
    # opens, SEEK_SET seeks and append writes reset the position, and
    # none of them moves it by a delta
    g_reset = g_open | g_appw
    g_reset[seek_at[seek_set]] = True
    base = np.zeros(m, dtype=np.int64)
    base[seek_at[seek_set]] = seek_to[seek_set]
    base[g_appw] = appw_land + g_cnt[g_appw]
    delta = np.zeros(m, dtype=np.int64)
    delta[seek_at[~seek_set]] = seek_to[~seek_set]
    seq_data = g_impl & ~g_appw
    delta[seq_data] = g_cnt[seq_data]
    cum = np.cumsum(delta)
    reset_idx = np.maximum.accumulate(np.where(g_reset, pos_m, 0))
    impl_off = base[reset_idx] + cum - cum[reset_idx] - delta
    impl_off[g_appw] = appw_land

    # -- the resolved extents, placed in trace order: an explicit row
    # keeps its offset and path, an implicit one takes its stream's --
    im = g_impl & (g_cnt > 0)
    im_rows = so[im]
    keep = explicit & (count_eff > 0)
    keep[im_rows] = True
    start = offset.copy()
    start[im_rows] = impl_off[im]
    path = path_id.copy()
    path[im_rows] = stream_path[im]
    rows = np.flatnonzero(keep)
    return rows if every else idx[rows], start[rows], path[rows]


def _stream_key(rank: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """A key per row, equal exactly when the rows' ``(rank, fd)`` are.

    ``rank * span + (fd - lo)`` over the fds' range ``[lo, lo + span)``,
    as uint16 while every key fits 16 bits, so that a stable sort on it
    is a radix sort; otherwise the fds are first remapped to dense ids
    and the key stays int64."""
    if not fd.size:
        return fd
    lo = int(fd.min())
    span = int(fd.max()) - lo + 1
    if int(rank.min()) >= 0 and (int(rank.max()) + 1) * span <= 1 << 16:
        return (rank * span + (fd - lo)).astype(np.uint16)
    values, dense = np.unique(fd, return_inverse=True)
    return rank * values.size + dense


#: the largest (rank, fd) table :func:`_opened_by_rank` builds
_FD_TABLE_MAX = 1 << 22


def _opened_by_rank(rank: np.ndarray, fd: np.ndarray, opens: np.ndarray,
                    used: np.ndarray) -> bool:
    """Does each row in ``used`` name an fd that an open of its rank
    returned, whenever its rank has an open record?

    ``opens`` are the open rows.  One lookup per used row in a (rank,
    fd) table: a rank without an open record (a partial trace) passes
    whatever its fd, an fd outside the opened range fails unless so.
    Opened fds spread too widely for a table answer ``False``, which
    leaves the question to the replay.
    """
    if not used.size or not opens.size:
        return True
    o_rank, o_fd = rank[opens], fd[opens]
    nranks = int(o_rank.max()) + 1
    named = o_fd != I64_NONE
    ofd = o_fd[named]
    lo = int(ofd.min()) if ofd.size else 0
    span = int(ofd.max()) - lo + 1 if ofd.size else 0
    if (nranks + 1) * (span + 1) > _FD_TABLE_MAX:
        return False
    # row nranks stands for every higher rank, column span for every
    # fd outside [lo, lo + span)
    table = np.ones((nranks + 1, span + 1), dtype=bool)
    table[o_rank] = False
    table[o_rank[named], ofd - lo] = True
    # an fd below lo wraps past span as an unsigned number
    cell = fd[used] - lo
    np.minimum(cell.view(np.uint64), span, out=cell.view(np.uint64))
    cell += np.minimum(rank[used], nranks) * (span + 1)
    return bool(table.ravel()[cell].all())


def _append_landings(open_rows: np.ndarray, write_rows: np.ndarray,
                     path_id: np.ndarray, write_path: np.ndarray,
                     flags: np.ndarray, sz_open: np.ndarray,
                     count_eff: np.ndarray) -> np.ndarray:
    """Where each append write of ``write_rows`` lands: its file's size
    before it.

    Each appending path's size is replayed as one reset+cumsum stream
    over its opens and append writes, matching :class:`_SizeTracker`:
    ``size_at_open`` seeds only while the size is still unknown (the
    ``setdefault``), a writable ``O_TRUNC`` open resets to zero, and
    every write grows the size by its count.
    """
    rows = np.concatenate([open_rows, write_rows])
    paths = np.concatenate([path_id[open_rows], write_path])
    order = np.lexsort((rows, paths))
    rows = rows[order]
    paths = paths[order]
    m = rows.size
    p = np.arange(m)
    z_open = order < open_rows.size
    z_flags = flags[rows]
    am = z_flags & F.O_ACCMODE
    z_trunc = (z_open & ((z_flags & F.O_TRUNC) != 0)
               & ((am == F.O_WRONLY) | (am == F.O_RDWR)))
    z_seed = z_open & (sz_open[rows] != I64_NONE) & ~z_trunc
    z_cnt = np.where(z_open, 0, count_eff[rows])
    new_grp = np.ones(m, dtype=bool)
    new_grp[1:] = paths[1:] != paths[:-1]
    starts = np.flatnonzero(new_grp)
    gid = np.cumsum(new_grp) - 1
    # setdefault semantics: a seed applies only if it precedes every
    # "hard" size setter (truncating open or size-growing write)
    hard = z_trunc | (~z_open & (z_cnt > 0))
    first_hard = np.minimum.reduceat(np.where(hard, p, m), starts)
    first_seed = np.minimum.reduceat(np.where(z_seed, p, m), starts)
    applies = first_seed[gid] < first_hard[gid]
    z_applied = z_seed & applies & (p == first_seed[gid])
    z_reset = new_grp | z_trunc | z_applied
    base = np.zeros(m, dtype=np.int64)
    base[z_applied] = sz_open[rows[z_applied]]
    first_write = new_grp & ~z_open & ~z_applied
    base[first_write] = z_cnt[first_write]
    base[z_trunc] = 0
    delta = np.where(z_reset, 0, z_cnt)
    cum = np.cumsum(delta)
    reset_idx = np.maximum.accumulate(np.where(z_reset, p, 0))
    size_after = base[reset_idx] + cum - cum[reset_idx]
    w = ~z_open
    land = np.empty(write_rows.size, dtype=np.int64)
    land[order[w] - open_rows.size] = size_after[w] - z_cnt[w]
    return land


def _replay(ct: ColumnarTrace, strict: bool):
    """The sequential pass: the §5.1 state machine one POSIX row at a
    time over column lists.  Each open starts a description ``[path_id,
    offset, append]`` keyed by ``(rank, fd)``, which ``dup`` aliases."""
    c = ct.columns
    lut = _func_class_lut(ct.funcs)
    rows = np.flatnonzero(ct.posix_mask() & (lut[c["func_id"]] != _OTHER))
    kinds = lut[c["func_id"][rows]].tolist()
    rid, rank, func_id, offset, count = (c[name][rows].tolist() for name in
                                         ("rid", "rank", "func_id",
                                          "offset", "count"))
    fd, path, *args = ([None if v == none else v for v in
                        c[name][rows].tolist()]
                       for name, none in (("fd", I64_NONE), ("path_id", -1),
                                          *((column, I64_NONE) for column
                                            in _STRUCTURAL_ARGS.values())))
    for row, extra in ct.extras.items():
        k = int(np.searchsorted(rows, row))
        if k < rows.size and rows[k] == row:
            for key, values in zip(_STRUCTURAL_ARGS, args):
                values[k] = extra.get(key, values[k])
    flags, whence, seek_to, length, newfd, size_at_open = args

    def need(values: list, k: int, what: str):
        if values[k] is None:
            raise TraceError(f"record {rid[k]} ({ct.funcs[func_id[k]]}) "
                             f"lacks {what}")
        return values[k]

    # the (rank, fd) pairs some open (or dup) of the rank returned, and
    # the ranks with an open record
    named = {(rank[k], fd[k] if kind == _OPEN else newfd[k])
             for k, kind in enumerate(kinds) if kind in (_OPEN, _DUP)}
    openers = {rank[k] for k, kind in enumerate(kinds) if kind == _OPEN}
    ofds: dict[tuple, list] = {}
    sizes: dict[int, int] = {}
    out: list[tuple[int, int, int]] = []
    for k, kind in enumerate(kinds):
        key = (rank[k], fd[k])
        if kind == _OPEN:
            p = need(path, k, "a path")
            open_flags = int(flags[k] or 0)
            if size_at_open[k] is not None:
                sizes.setdefault(p, int(size_at_open[k]))
            if open_flags & F.O_TRUNC and F.writable(open_flags):
                sizes[p] = 0
            ofds[key] = [p, 0, bool(open_flags & F.O_APPEND)]
        elif kind == _CLOSE:
            ofds.pop(key, None)
        elif kind == _DUP:
            if key in ofds:
                ofds[(rank[k], int(need(newfd, k, "its newfd")))] = ofds[key]
        elif kind == _SEEK:
            st = ofds.get(key)
            if st is None:
                if strict:
                    raise TraceError(
                        f"seek on untracked fd {fd[k]} (rank {rank[k]})")
                continue
            to = int(need(seek_to, k, "its offset"))
            how = int(need(whence, k, "its whence"))
            base = {F.SEEK_SET: 0, F.SEEK_CUR: st[1],
                    F.SEEK_END: sizes.get(st[0], 0)}
            if how not in base:
                raise TraceError(f"record {rid[k]}: unknown whence {how}")
            st[1] = base[how] + to
        elif kind == _TRUNC:
            sizes[need(path, k, "a path")] = int(need(length, k,
                                                      "its length"))
        elif kind == _FTRUNC:
            st = ofds.get(key)
            p = st[0] if st is not None else path[k]
            if p is not None:
                sizes[p] = int(need(length, k, "its length"))
        else:  # a read or a write
            n = 0 if count[k] == I64_NONE else count[k]
            writes = kind == _WR
            if offset[k] != I64_NONE:  # pread/pwrite carry their offset
                if (strict and fd[k] is not None and key not in named
                        and rank[k] in openers):
                    raise TraceError(
                        f"record {rid[k]} ({ct.funcs[func_id[k]]}) uses "
                        f"fd {fd[k]}, which no open of rank {rank[k]} "
                        f"returned")
                start = offset[k]
                p = need(path, k, "a path")
            else:
                st = ofds.get(key)
                if st is None:
                    if strict:
                        raise TraceError(f"data op on untracked fd "
                                         f"{fd[k]} (rank {rank[k]})")
                    continue
                if writes and st[2]:
                    st[1] = sizes.get(st[0], 0)
                start = st[1]
                st[1] = start + n
                p = st[0]
            if writes and start + n > sizes.get(p, 0):
                sizes[p] = start + n
            if n:
                out.append((int(rows[k]), start, p))
    out = np.array(out, dtype=np.int64).reshape(-1, 3)
    return out[:, 0], out[:, 1], out[:, 2]
