"""Structure-of-arrays trace core and the ``.rtrc`` binary format.

The analysis side has been columnar since the beginning
(:class:`repro.core.records.AccessTable`), but traces themselves were
per-record Python objects, which caps every downstream consumer at toy
sizes.  :class:`ColumnarTrace` stores one trace as parallel numpy arrays
— ``tstart``/``tend``/``rank``/``func``/``fd``/``offset``/``count``/
``flags``/… — with interned string tables for function names and file
paths, mirroring the Recorder paper's insight that parallel-I/O analysis
stays tractable at millions of ops only with a compact columnar format.

Representation rules:

* every numeric column is fixed-width little-endian; optional integer
  fields use the sentinel :data:`I64_NONE` for "absent" (``None`` on the
  object side);
* strings (function names, paths, MPI kinds/roles) are interned into
  first-appearance-ordered tables; a row stores the table index
  (``-1`` for a ``None`` path);
* frequently-used ``args`` keys (``flags``, ``whence``, the seek target
  ``offset``, ``length``, ``newfd``, ``size_at_open``, ``requested``)
  are promoted to integer columns; everything else — and any non-``int``
  ``result`` — round-trips through a sparse JSON side table, so the
  object → columnar → object conversion is lossless.  An ``int`` that
  the column cannot carry faithfully (equal to the :data:`I64_NONE`
  sentinel, or outside the int64 range) is *escape-encoded* through the
  same side tables rather than silently decoding as absent; the four
  core optional columns (``fd``/``offset``/``count``/``gt_offset``)
  have no side table, so a colliding value there raises
  :class:`~repro.errors.AnalysisError` at encode time.

The on-disk form (``.rtrc``) is a versioned little-endian container:
a fixed header (magic, version, header length), a JSON header carrying
run identity and the column directory, 8-byte-aligned per-column blocks
of raw array bytes, and a trailing CRC-32 of everything before it.
:func:`load` maps the file with ``np.memmap`` and wraps each column as a
zero-copy ``frombuffer`` view — no per-record objects are ever
materialized.  A truncated, corrupt, or future-versioned file raises
:class:`repro.errors.AnalysisError`, never a bare numpy/struct error.

See ``docs/trace_format.md`` for the byte-level layout and the
versioning rules.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import AnalysisError
from repro.tracer.events import Layer, MPIEvent, TraceRecord
from repro.tracer.trace import Trace

#: file magic, first four bytes of every ``.rtrc`` file
RTRC_MAGIC = b"RTRC"
#: current format version; readers reject anything newer (see
#: ``docs/trace_format.md`` for the compatibility rules)
RTRC_VERSION = 1
#: sentinel for "absent" in optional integer columns (``None`` objects)
I64_NONE = np.iinfo(np.int64).min

#: fixed table for layer/issuer ids — the :class:`Layer` enum in
#: declaration order, so ids are stable across traces and versions
LAYER_TABLE: tuple[str, ...] = tuple(layer.value for layer in Layer)
_LAYER_ID = {name: i for i, name in enumerate(LAYER_TABLE)}

#: ``args`` keys promoted to dedicated integer columns (values that are
#: exactly ``int`` and representable in int64 without colliding with
#: :data:`I64_NONE` — ``bool``, sentinel-valued, and out-of-range ints
#: stay in the JSON side table for fidelity)
PROMOTED_ARGS: tuple[str, ...] = ("flags", "whence", "offset", "length",
                                  "newfd", "size_at_open", "requested")
_ARG_COLUMN = {key: (f"arg_{key}" if key == "offset" else key)
               for key in PROMOTED_ARGS}

#: record columns in serialization order: (attribute name, dtype)
RECORD_COLUMNS: tuple[tuple[str, str], ...] = (
    ("rid", "<i8"),
    ("rank", "<i8"),
    ("layer_id", "<i2"),
    ("issuer_id", "<i2"),
    ("func_id", "<i4"),
    ("tstart", "<f8"),
    ("tend", "<f8"),
    ("path_id", "<i4"),
    ("fd", "<i8"),
    ("offset", "<i8"),
    ("count", "<i8"),
    ("flags", "<i8"),
    ("whence", "<i8"),
    ("arg_offset", "<i8"),
    ("length", "<i8"),
    ("newfd", "<i8"),
    ("size_at_open", "<i8"),
    ("requested", "<i8"),
    ("result_i", "<i8"),
    ("gt_offset", "<i8"),
)

#: MPI event columns (match keys live in the JSON header)
EVENT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("ev_eid", "<i8"),
    ("ev_rank", "<i8"),
    ("ev_kind_id", "<i4"),
    ("ev_role_id", "<i4"),
    ("ev_tstart", "<f8"),
    ("ev_tend", "<f8"),
)

_COLUMN_DTYPES = dict(RECORD_COLUMNS) | dict(EVENT_COLUMNS)


class _Interner:
    """First-appearance string interner (deterministic table order)."""

    def __init__(self) -> None:
        self.table: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, value: str) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.table)
            self.table.append(value)
            self._index[value] = idx
        return idx


#: largest value an ``<i8`` column can hold
_I64_MAX = int(np.iinfo(np.int64).max)


def _column_representable(value: int) -> bool:
    """True when ``value`` survives an int64 column round trip:
    in range and distinct from the :data:`I64_NONE` absent sentinel."""
    return I64_NONE < value <= _I64_MAX


def _opt_int(value: int | None, rid: int, name: str) -> int:
    if value is None:
        return I64_NONE
    value = int(value)
    if not _column_representable(value):
        raise AnalysisError(
            f"record {rid}: {name}={value} cannot be stored in an "
            f"int64 trace column (it collides with the I64_NONE "
            f"absent-value sentinel or exceeds the int64 range)")
    return value


def _decode_match_key(parts):
    """Recursive list→tuple: match keys nest (collectives carry rank
    subsets inside the key), unlike the one-level ``from_jsonl`` form."""
    if isinstance(parts, list):
        return tuple(_decode_match_key(x) for x in parts)
    return parts


@dataclass
class ColumnarTrace:
    """One trace as parallel numpy columns plus interned string tables.

    Column arrays all have length :attr:`nrecords`; event arrays have
    length :attr:`nevents`.  ``extras``/``results`` are sparse
    ``{row_index: value}`` side tables for whatever the integer columns
    cannot carry.  Instances loaded from disk hold read-only views into
    the underlying ``memmap`` — treat columns as immutable.
    """

    nranks: int
    meta: dict[str, Any] = field(default_factory=dict)
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    funcs: list[str] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    roles: list[str] = field(default_factory=list)
    match_keys: list[tuple] = field(default_factory=list)
    extras: dict[int, dict[str, Any]] = field(default_factory=dict)
    results: dict[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, dtype in RECORD_COLUMNS:
            if name not in self.columns:
                self.columns[name] = np.empty(0, dtype=dtype)
        for name, dtype in EVENT_COLUMNS:
            if name not in self.columns:
                self.columns[name] = np.empty(0, dtype=dtype)

    # -- array access -----------------------------------------------------------

    def __getattr__(self, name: str):
        # dataclass fields resolve normally; only column names land here
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return self.nrecords

    @property
    def nrecords(self) -> int:
        return int(self.columns["rid"].shape[0])

    @property
    def nevents(self) -> int:
        return int(self.columns["ev_eid"].shape[0])

    def posix_mask(self) -> np.ndarray:
        """Boolean mask of POSIX-layer rows."""
        return self.columns["layer_id"] == _LAYER_ID[Layer.POSIX.value]

    def func_lookup(self, names) -> np.ndarray:
        """Boolean per-entry table mask: is ``funcs[i]`` in ``names``?"""
        return np.fromiter((f in names for f in self.funcs),
                           dtype=bool, count=len(self.funcs))

    def validate(self) -> None:
        """Cheap structural checks mirroring :meth:`Trace.validate`.

        Also requires every interned id to lie inside the table it
        indexes and one MPI match key per event.
        """
        n = self.nrecords
        for name, _ in RECORD_COLUMNS:
            if self.columns[name].shape[0] != n:
                raise AnalysisError(
                    f"column {name!r} has {self.columns[name].shape[0]} "
                    f"rows, expected {n}")
        for name, _ in EVENT_COLUMNS:
            if self.columns[name].shape[0] != self.nevents:
                raise AnalysisError(
                    f"column {name!r} has {self.columns[name].shape[0]} "
                    f"rows, expected {self.nevents}")
        if len(self.match_keys) != self.nevents:
            raise AnalysisError(
                f"{len(self.match_keys)} MPI match keys for "
                f"{self.nevents} events")
        for name, table, lowest in (
                ("func_id", self.funcs, 0), ("path_id", self.paths, -1),
                ("layer_id", LAYER_TABLE, 0),
                ("issuer_id", LAYER_TABLE, 0),
                ("ev_kind_id", self.kinds, 0),
                ("ev_role_id", self.roles, 0)):
            ids = self.columns[name]
            bad = np.flatnonzero((ids < lowest) | (ids >= len(table)))
            if bad.size:
                i = int(bad[0])
                raise AnalysisError(
                    f"row {i}: {name} {int(ids[i])} is outside its "
                    f"{len(table)}-entry table")
        rank = self.columns["rank"]
        if n and (int(rank.min()) < 0 or int(rank.max()) >= self.nranks):
            raise AnalysisError("columnar trace has an out-of-range rank")
        if n and bool(np.any(self.columns["tend"]
                             < self.columns["tstart"])):
            raise AnalysisError("columnar trace record ends before it "
                               "starts")

    def columns_equal(self, other: "ColumnarTrace") -> bool:
        """Exact column-level equality (tests and round-trip checks)."""
        if (self.nranks != other.nranks or self.meta != other.meta
                or self.funcs != other.funcs
                or self.paths != other.paths
                or self.kinds != other.kinds
                or self.roles != other.roles
                or self.match_keys != other.match_keys
                or self.extras != other.extras
                or self.results != other.results):
            return False
        for name in _COLUMN_DTYPES:
            if not np.array_equal(self.columns[name],
                                  other.columns[name]):
                return False
        return True

    # -- converters -------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Lossless conversion from per-record trace objects."""
        n = len(trace.records)
        funcs = _Interner()
        paths = _Interner()
        kinds = _Interner()
        roles = _Interner()
        cols = {name: np.empty(n, dtype=dtype)
                for name, dtype in RECORD_COLUMNS}
        extras: dict[int, dict[str, Any]] = {}
        results: dict[int, Any] = {}
        # lint: allow-per-op-loop (the one conversion off the object form)
        for i, rec in enumerate(trace.records):
            cols["rid"][i] = rec.rid
            cols["rank"][i] = rec.rank
            cols["layer_id"][i] = _LAYER_ID[rec.layer.value]
            cols["issuer_id"][i] = _LAYER_ID[rec.issuer.value]
            cols["func_id"][i] = funcs.intern(rec.func)
            cols["tstart"][i] = rec.tstart
            cols["tend"][i] = rec.tend
            cols["path_id"][i] = (-1 if rec.path is None
                                  else paths.intern(rec.path))
            cols["fd"][i] = _opt_int(rec.fd, rec.rid, "fd")
            cols["offset"][i] = _opt_int(rec.offset, rec.rid, "offset")
            cols["count"][i] = _opt_int(rec.count, rec.rid, "count")
            cols["gt_offset"][i] = _opt_int(rec.gt_offset, rec.rid,
                                            "gt_offset")
            leftover: dict[str, Any] = {}
            promoted = {key: I64_NONE for key in PROMOTED_ARGS}
            for key, value in rec.args.items():
                # sentinel-valued / out-of-range ints escape-encode
                # through the extras side table instead of silently
                # round-tripping to "absent"
                if (key in promoted and type(value) is int
                        and _column_representable(value)):
                    promoted[key] = value
                else:
                    leftover[key] = value
            for key in PROMOTED_ARGS:
                cols[_ARG_COLUMN[key]][i] = promoted[key]
            if leftover:
                extras[i] = leftover
            if type(rec.result) is int \
                    and _column_representable(rec.result):
                cols["result_i"][i] = rec.result
            else:
                cols["result_i"][i] = I64_NONE
                if rec.result is not None:
                    results[i] = rec.result
        ne = len(trace.mpi_events)
        for name, dtype in EVENT_COLUMNS:
            cols[name] = np.empty(ne, dtype=dtype)
        match_keys: list[tuple] = []
        for i, ev in enumerate(trace.mpi_events):
            cols["ev_eid"][i] = ev.eid
            cols["ev_rank"][i] = ev.rank
            cols["ev_kind_id"][i] = kinds.intern(ev.kind)
            cols["ev_role_id"][i] = roles.intern(ev.role)
            cols["ev_tstart"][i] = ev.tstart
            cols["ev_tend"][i] = ev.tend
            match_keys.append(ev.match_key)
        return cls(nranks=trace.nranks, meta=dict(trace.meta),
                   columns=cols, funcs=funcs.table, paths=paths.table,
                   kinds=kinds.table, roles=roles.table,
                   match_keys=match_keys, extras=extras,
                   results=results)

    def to_trace(self) -> Trace:
        """Materialize per-record trace objects (lossless inverse)."""
        funcs = self.funcs
        paths = self.paths
        records: list[TraceRecord] = []
        c = self.columns
        col_lists = [c["rid"].tolist(), c["rank"].tolist(),
                     c["layer_id"].tolist(), c["issuer_id"].tolist(),
                     c["func_id"].tolist(), c["tstart"].tolist(),
                     c["tend"].tolist(), c["path_id"].tolist(),
                     c["fd"].tolist(), c["offset"].tolist(),
                     c["count"].tolist(), c["gt_offset"].tolist(),
                     c["result_i"].tolist()]
        arg_lists = {key: c[_ARG_COLUMN[key]].tolist()
                     for key in PROMOTED_ARGS}
        for i, (rid, rank, layer_id, issuer_id, func_id, tstart, tend,
                path_id, fd, offset, count, gt_offset, result_i) \
                in enumerate(zip(*col_lists)):
            args: dict[str, Any] = {}
            for key in PROMOTED_ARGS:
                value = arg_lists[key][i]
                if value != I64_NONE:
                    args[key] = value
            extra = self.extras.get(i)
            if extra:
                args.update(extra)
            result = (result_i if result_i != I64_NONE
                      else self.results.get(i))
            records.append(TraceRecord(
                rid=rid, rank=rank,
                layer=Layer(LAYER_TABLE[layer_id]),
                issuer=Layer(LAYER_TABLE[issuer_id]),
                func=funcs[func_id], tstart=tstart, tend=tend,
                path=None if path_id < 0 else paths[path_id],
                fd=None if fd == I64_NONE else fd,
                offset=None if offset == I64_NONE else offset,
                count=None if count == I64_NONE else count,
                args=args, result=result,
                gt_offset=None if gt_offset == I64_NONE else gt_offset))
        events: list[MPIEvent] = []
        ev_lists = [c["ev_eid"].tolist(), c["ev_rank"].tolist(),
                    c["ev_kind_id"].tolist(), c["ev_role_id"].tolist(),
                    c["ev_tstart"].tolist(), c["ev_tend"].tolist()]
        for i, (eid, rank, kind_id, role_id, tstart, tend) \
                in enumerate(zip(*ev_lists)):
            events.append(MPIEvent(
                eid=eid, rank=rank, kind=self.kinds[kind_id],
                match_key=self.match_keys[i], role=self.roles[role_id],
                tstart=tstart, tend=tend))
        return Trace(nranks=self.nranks, records=records,
                     mpi_events=events, meta=dict(self.meta))

    # -- binary (de)serialization ------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as a versioned ``.rtrc`` container."""
        write_rtrc(self, path)

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = True,
             verify: bool = True) -> "ColumnarTrace":
        """Load an ``.rtrc`` file with zero-copy column views."""
        return read_rtrc(path, mmap=mmap, verify=verify)


# -- .rtrc container ------------------------------------------------------------

_FIXED_HEADER = struct.Struct("<4sHHQ")  # magic, version, flags, json len


def _align8(n: int) -> int:
    return (n + 7) & ~7


def write_rtrc(ct: ColumnarTrace, path: str | Path) -> None:
    """Serialize ``ct`` at ``path`` (little-endian, CRC-32 trailer)."""
    order = [name for name, _ in RECORD_COLUMNS + EVENT_COLUMNS]
    blocks: list[bytes] = []
    directory = []
    data_offset = 0
    for name in order:
        arr = np.ascontiguousarray(ct.columns[name],
                                   dtype=_COLUMN_DTYPES[name])
        raw = arr.tobytes()
        directory.append({"name": name, "dtype": _COLUMN_DTYPES[name],
                          "offset": data_offset,
                          "count": int(arr.shape[0])})
        padded = _align8(len(raw))
        blocks.append(raw + b"\0" * (padded - len(raw)))
        data_offset += padded
    header = {
        "nranks": ct.nranks,
        "meta": ct.meta,
        "nrecords": ct.nrecords,
        "nevents": ct.nevents,
        "funcs": ct.funcs,
        "paths": ct.paths,
        "kinds": ct.kinds,
        "roles": ct.roles,
        "match_keys": [list(key) for key in ct.match_keys],
        "extras": {str(row): value
                   for row, value in sorted(ct.extras.items())},
        "results": {str(row): value
                    for row, value in sorted(ct.results.items())},
        "columns": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":"),
                              default=str).encode("utf-8")
    head = _FIXED_HEADER.pack(RTRC_MAGIC, RTRC_VERSION, 0,
                              len(header_bytes))
    pad = b"\0" * (_align8(_FIXED_HEADER.size + len(header_bytes))
                   - _FIXED_HEADER.size - len(header_bytes))
    payload = b"".join([head, header_bytes, pad, *blocks])
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    Path(path).write_bytes(payload + struct.pack("<I", crc))


def _format_error(path: Path, detail: str) -> AnalysisError:
    return AnalysisError(f"{path}: not a valid .rtrc trace ({detail})")


def read_rtrc(path: str | Path, *, mmap: bool = True,
              verify: bool = True) -> ColumnarTrace:
    """Parse a ``.rtrc`` file into zero-copy column views.

    With ``mmap`` (default) the file is mapped read-only and every
    column is a ``frombuffer`` view into the mapping; without it the
    file is read into one bytes object first.  ``verify`` checks the
    CRC-32 trailer (reads every page; disable for huge read-mostly
    archives you trust).  Any structural problem — bad magic, a future
    version, truncation, checksum mismatch, a column block that runs
    past end-of-file, or anything :meth:`ColumnarTrace.validate`
    rejects — raises :class:`AnalysisError`.
    """
    p = Path(path)
    try:
        if mmap:
            buf = np.memmap(p, dtype=np.uint8, mode="r")
        else:
            buf = np.frombuffer(p.read_bytes(), dtype=np.uint8)
    except (OSError, ValueError) as exc:
        raise _format_error(p, f"unreadable: {exc}") from None
    if buf.shape[0] < _FIXED_HEADER.size + 4:
        raise _format_error(p, "file shorter than the fixed header")
    magic, version, _flags, header_len = _FIXED_HEADER.unpack(
        buf[:_FIXED_HEADER.size].tobytes())
    if magic != RTRC_MAGIC:
        raise _format_error(p, f"bad magic {magic!r}")
    if version != RTRC_VERSION:
        raise _format_error(
            p, f"format version {version} (this reader understands "
               f"only {RTRC_VERSION})")
    header_end = _FIXED_HEADER.size + header_len
    if header_end + 4 > buf.shape[0]:
        raise _format_error(p, "truncated header")
    try:
        header = json.loads(buf[_FIXED_HEADER.size:header_end]
                            .tobytes().decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _format_error(p, f"bad header JSON: {exc}") from None
    if verify:
        stored = struct.unpack("<I", buf[-4:].tobytes())[0]
        actual = zlib.crc32(buf[:-4]) & 0xFFFFFFFF
        if stored != actual:
            raise _format_error(
                p, f"checksum mismatch (stored {stored:#010x}, "
                   f"computed {actual:#010x})")
    data_start = _align8(header_end)
    data_end = buf.shape[0] - 4
    columns: dict[str, np.ndarray] = {}
    try:
        directory = list(header["columns"])
        for entry in directory:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            count = int(entry["count"])
            start = data_start + int(entry["offset"])
            stop = start + count * dtype.itemsize
            if count < 0 or stop > data_end:
                raise _format_error(
                    p, f"column {name!r} runs past end of file")
            columns[name] = np.frombuffer(buf, dtype=dtype,
                                          count=count, offset=start)
        for name in _COLUMN_DTYPES:
            if name not in columns:
                raise _format_error(p, f"missing column {name!r}")
        ct = ColumnarTrace(
            nranks=int(header["nranks"]),
            meta=dict(header["meta"]),
            columns=columns,
            funcs=[str(s) for s in header["funcs"]],
            paths=[str(s) for s in header["paths"]],
            kinds=[str(s) for s in header["kinds"]],
            roles=[str(s) for s in header["roles"]],
            match_keys=[_decode_match_key(k)
                        for k in header["match_keys"]],
            extras={int(row): value
                    for row, value in header["extras"].items()},
            results={int(row): value
                     for row, value in header["results"].items()})
    except AnalysisError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise _format_error(p, f"malformed header: {exc}") from None
    if ct.nrecords != int(header.get("nrecords", ct.nrecords)):
        raise _format_error(p, "record count disagrees with columns")
    try:
        ct.validate()
    except AnalysisError as exc:
        raise _format_error(p, str(exc)) from None
    return ct


__all__ = [
    "ColumnarTrace",
    "EVENT_COLUMNS",
    "I64_NONE",
    "LAYER_TABLE",
    "PROMOTED_ARGS",
    "RECORD_COLUMNS",
    "RTRC_MAGIC",
    "RTRC_VERSION",
    "read_rtrc",
    "write_rtrc",
]
