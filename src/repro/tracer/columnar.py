"""Structure-of-arrays trace core and the ``.rtrc`` binary format.

:class:`ColumnarTrace` is the one trace form: parallel numpy arrays —
``tstart``/``tend``/``rank``/``func``/``fd``/``offset``/``count``/
``flags``/… — with interned string tables for function names and file
paths, mirroring the Recorder paper's insight that parallel-I/O analysis
stays tractable at millions of ops only with a compact columnar format.
:class:`~repro.tracer.trace.Trace` is a read-only view over one whose
:class:`TraceRecord` items are built on demand (:func:`build_records`);
:func:`encode` is the one way in from per-record tuples.

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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import compress, repeat
from operator import is_not, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.errors import AnalysisError, TraceError
from repro.tracer.events import DATA_OPS, Layer, MPIEvent, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - trace.py imports this module
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
_LAYER_INDEX = {layer: i for i, layer in enumerate(Layer)}
_LAYERS = tuple(Layer)

#: ``args`` keys promoted to dedicated integer columns (values that are
#: exactly ``int`` and representable in int64 without colliding with
#: :data:`I64_NONE` — ``bool``, sentinel-valued, and out-of-range ints
#: stay in the JSON side table for fidelity)
PROMOTED_ARGS: tuple[str, ...] = ("flags", "whence", "offset", "length",
                                  "newfd", "size_at_open", "requested")
_ARG_COLUMN = {key: (f"arg_{key}" if key == "offset" else key)
               for key in PROMOTED_ARGS}
#: the key order of the ``args`` the POSIX layer records (open: flags,
#: flags_str, existed, size_at_open; lseek: offset, whence).  A rebuilt
#: record lists its promoted and side-table keys in this order, then any
#: other side-table keys, so it renders (JSONL, text) as it was recorded
ARG_ORDER: tuple[str, ...] = ("flags", "flags_str", "existed",
                              "size_at_open", "offset", "whence",
                              "length", "newfd", "requested")
_ARG_RANK = {key: i for i, key in enumerate(ARG_ORDER)}

#: the tuple orders :func:`encode` takes: the :class:`TraceRecord` and
#: :class:`MPIEvent` fields
RECORD_FIELDS = tuple(f.name for f in fields(TraceRecord))
EVENT_FIELDS = tuple(f.name for f in fields(MPIEvent))
#: records built per step while iterating a view; none are kept
CHUNK = 4096

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


#: largest value an ``<i8`` column can hold
_I64_MAX = int(np.iinfo(np.int64).max)


def _column_representable(value: int) -> bool:
    """True when ``value`` survives an int64 column round trip:
    in range and distinct from the :data:`I64_NONE` absent sentinel."""
    return I64_NONE < value <= _I64_MAX


def _decode_match_key(parts):
    """Recursive list→tuple: match keys nest (collectives carry rank
    subsets inside the key), unlike the one-level ``from_jsonl`` form."""
    if isinstance(parts, list):
        return tuple(_decode_match_key(x) for x in parts)
    return parts


def interned(values) -> tuple[list, np.ndarray]:
    """A first-appearance string table and int32 row ids into it.

    ``None`` is id -1 and stays out of the table."""
    table = [v for v in dict.fromkeys(values) if v is not None]
    index = {v: i for i, v in enumerate(table)}
    index[None] = -1
    return table, np.fromiter(map(index.__getitem__, values), np.int32,
                              len(values))


def _opt_column(values, rids, name: str) -> np.ndarray:
    """An optional-int column: ``None`` becomes :data:`I64_NONE`; a
    value the column cannot carry raises :class:`AnalysisError`."""
    try:
        column = np.array([I64_NONE if v is None else v for v in values],
                          dtype=np.int64)
        if np.count_nonzero(column == I64_NONE) == values.count(None):
            return column
    except OverflowError:
        pass
    rid, value = next((rid, v) for rid, v in zip(rids, values)
                      if v is not None and not _column_representable(int(v)))
    raise AnalysisError(
        f"record {rid}: {name}={value} cannot be stored in an int64 "
        f"trace column (it collides with the I64_NONE absent-value "
        f"sentinel or exceeds the int64 range)")


def _result_column(values: list) -> tuple[np.ndarray, dict[int, Any]]:
    """The ``result_i`` column and the ``results`` side table: an ``int``
    the column can carry goes in the column, any other non-``None``
    value in the table under its row."""
    rows: list[int] = []
    ints: list[int] = []
    table: dict[int, Any] = {}
    for i in compress(range(len(values)), map(is_not, values, repeat(None))):
        value = values[i]
        if type(value) is int and _column_representable(value):
            rows.append(i)
            ints.append(value)
        else:
            table[i] = value
    column = np.full(len(values), I64_NONE, np.int64)
    column[rows] = ints
    return column, table


def _fields(names: tuple[str, ...], rows: list[tuple],
            shift: np.ndarray | None) -> dict[str, Sequence]:
    """Field name -> column of ``rows``.

    With ``shift`` (per rank, added to both times) the rows are aligned:
    times moved, rows sorted by ``(tstart, rank, id)`` with one
    ``np.lexsort``, and ids renumbered to their position.  Every column
    is read with one ``itemgetter`` pass (``zip(*rows)`` would make an
    iterator per row for the cyclic garbage collector to count), and the
    sort moves row references, not rows."""
    n = len(rows)
    if shift is None or not n:
        return {name: list(map(itemgetter(i), rows))
                for i, name in enumerate(names)}

    def key(name: str, dtype) -> np.ndarray:
        return np.fromiter(map(itemgetter(names.index(name)), rows), dtype, n)

    rank = key("rank", np.int64)
    tstart = key("tstart", np.float64) + shift[rank]
    order = np.lexsort((key(names[0], np.int64), rank, tstart))
    columns = _fields(names, itemgetter(*order.tolist())(rows) if n > 1
                      else rows, None)
    rank = rank[order]
    columns.update({
        names[0]: np.arange(n, dtype=np.int64), "rank": rank,
        "tstart": tstart[order],
        "tend": np.array(columns["tend"], dtype=np.float64) + shift[rank]})
    return columns


def encode(nranks: int, records: Iterable[tuple],
           events: Iterable[tuple] = (),
           meta: dict[str, Any] | None = None, *,
           origins: Sequence[float | None] | None = None,
           ) -> "ColumnarTrace":
    """Columns from record and event tuples.

    Tuples follow :data:`RECORD_FIELDS` and :data:`EVENT_FIELDS`; string
    tables, promoted ``args`` and side tables are as the format
    describes.  Rows keep the given order, unless ``origins`` gives each
    rank's time origin (``None`` for none): then every row's times move
    back by its rank's origin, rows are sorted by ``(tstart, rank, id)``
    and ids are renumbered to their position — the alignment
    :meth:`~repro.tracer.recorder.Recorder.build_trace` asks for."""
    shift = (None if origins is None
             else -np.array([o or 0.0 for o in origins], dtype=np.float64))
    records, events = list(records), list(events)
    n = len(records)
    r = _fields(RECORD_FIELDS, records, shift)
    e = _fields(EVENT_FIELDS, events, shift)
    funcs, func_id = interned(r["func"])
    paths, path_id = interned(r["path"])
    kinds, kind_id = interned(e["kind"])
    roles, role_id = interned(e["role"])
    layer_index = _LAYER_INDEX.__getitem__
    cols = {"rid": r["rid"], "rank": r["rank"], "func_id": func_id,
            "layer_id": np.fromiter(map(layer_index, r["layer"]),
                                    np.int16, n),
            "issuer_id": np.fromiter(map(layer_index, r["issuer"]),
                                     np.int16, n),
            "tstart": r["tstart"], "tend": r["tend"], "path_id": path_id,
            "ev_eid": e["eid"], "ev_rank": e["rank"],
            "ev_kind_id": kind_id, "ev_role_id": role_id,
            "ev_tstart": e["tstart"], "ev_tend": e["tend"]}
    for name in ("fd", "offset", "count", "gt_offset"):
        cols[name] = _opt_column(r[name], r["rid"], name)
    # promoted args as (rows, values) per key, scattered into columns
    promoted: dict[str, tuple[list[int], list[int]]] = {
        key: ([], []) for key in PROMOTED_ARGS}
    extras: dict[int, dict[str, Any]] = {}
    all_args = r["args"]
    for i in compress(range(n), all_args):
        # sentinel-valued / out-of-range ints escape-encode through the
        # extras side table instead of silently round-tripping to absent
        for key, value in all_args[i].items():
            if (key in promoted and type(value) is int
                    and _column_representable(value)):
                rows, values = promoted[key]
                rows.append(i)
                values.append(value)
            else:
                extras.setdefault(i, {})[key] = value
    for key, (rows, values) in promoted.items():
        cols[_ARG_COLUMN[key]] = column = np.full(n, I64_NONE, np.int64)
        column[rows] = values
    cols["result_i"], results = _result_column(r["result"])
    return ColumnarTrace(
        nranks=int(nranks), meta=dict(meta or {}),
        columns={name: np.array(cols[name], dtype=dtype)
                 for name, dtype in RECORD_COLUMNS + EVENT_COLUMNS},
        funcs=funcs, paths=paths, kinds=kinds, roles=roles,
        match_keys=list(e["match_key"]), extras=extras, results=results)


class RowView(Sequence):
    """A read-only sequence of objects built on demand from rows.

    ``build(rows)`` makes the objects of a slice or an index array of
    the ``n`` rows.  Iterating builds at most :data:`CHUNK` at a time and
    keeps none; equality is elementwise."""

    def __init__(self, n: int, build: Callable[[Any], list]):
        self._n = n
        self._build = build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._build(index)
        if not -self._n <= index < self._n:
            raise IndexError(f"row {index} of {self._n}")
        return self._build(slice(index % self._n, index % self._n + 1))[0]

    def __iter__(self) -> Iterator:
        for lo in range(0, self._n, CHUNK):
            yield from self._build(slice(lo, lo + CHUNK))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RowView, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))


def _rebuilt_args(promoted: dict[str, Any],
                  extra: dict[str, Any] | None) -> dict[str, Any]:
    if not extra:
        return promoted
    merged = {**promoted, **extra}
    return {key: merged[key] for key in
            sorted(merged, key=lambda k: _ARG_RANK.get(k, len(ARG_ORDER)))}


def _row_numbers(n: int, rows) -> list[int]:
    return (list(range(n)[rows]) if isinstance(rows, slice)
            else np.asarray(rows).tolist())


def _opt(value: int) -> int | None:
    return None if value == I64_NONE else value


def build_records(ct: "ColumnarTrace", rows) -> list[TraceRecord]:
    """Rebuild the :class:`TraceRecord` objects of ``rows``.

    ``rows`` is a slice or an index array; values come from the columns
    and side tables."""
    c = ct.columns
    index = _row_numbers(ct.nrecords, rows)
    arg_lists = [(key, c[_ARG_COLUMN[key]][rows].tolist())
                 for key in ARG_ORDER if key in _ARG_COLUMN]
    return [TraceRecord(
        rid, rank, _LAYERS[layer], _LAYERS[issuer], ct.funcs[func], t0, t1,
        None if path < 0 else ct.paths[path], _opt(fd), _opt(offset),
        _opt(count), _rebuilt_args({key: values[k] for key, values
                                    in arg_lists if values[k] != I64_NONE},
                                   ct.extras.get(index[k])),
        result if result != I64_NONE else ct.results.get(index[k]),
        _opt(gt_offset))
        for k, (rid, rank, layer, issuer, func, t0, t1, path, fd, offset,
                count, result, gt_offset) in enumerate(zip(*(
                    c[name][rows].tolist() for name in (
                        "rid", "rank", "layer_id", "issuer_id", "func_id",
                        "tstart", "tend", "path_id", "fd", "offset",
                        "count", "result_i", "gt_offset"))))]


def build_events(ct: "ColumnarTrace", rows) -> list[MPIEvent]:
    """Rebuild the :class:`MPIEvent` objects of ``rows``."""
    c = ct.columns
    return [MPIEvent(eid, rank, ct.kinds[kind], ct.match_keys[row],
                     ct.roles[role], t0, t1)
            for row, eid, rank, kind, role, t0, t1 in zip(
                _row_numbers(ct.nevents, rows), *(
                    c[name][rows].tolist() for name in (
                        "ev_eid", "ev_rank", "ev_kind_id", "ev_role_id",
                        "ev_tstart", "ev_tend")))]


@dataclass
class ColumnarTrace:
    """One trace as parallel numpy columns plus interned string tables.

    Column arrays all have length :attr:`nrecords`; event arrays have
    length :attr:`nevents`.  ``extras``/``results`` are sparse
    ``{row_index: value}`` side tables for whatever the integer columns
    cannot carry.  Instances loaded from disk hold read-only views into
    the underlying ``memmap`` — treat columns as immutable.
    :meth:`to_trace` wraps one in the :class:`~repro.tracer.trace.Trace`
    view the analyses take.  ``memo`` keeps what is derived from the
    columns once: the mark of a passed :meth:`validate` and the
    analysis stages of ``repro.core.report``.
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
    memo: dict[Any, Any] = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

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
        return self.columns["layer_id"] == _LAYER_INDEX[Layer.POSIX]

    def func_lookup(self, names) -> np.ndarray:
        """Boolean per-entry table mask: is ``funcs[i]`` in ``names``?"""
        return np.fromiter((f in names for f in self.funcs),
                           dtype=bool, count=len(self.funcs))

    def validate(self) -> None:
        """The one trace validator, run by :func:`read_rtrc` and
        ``analyze``.  Structural damage (column lengths, match keys, ids
        outside their tables) raises :class:`AnalysisError`; then the
        first bad record raises :class:`TraceError`: a rank outside
        ``[0, nranks)``, an end before its start, or a POSIX data
        record without a byte count; then a record that starts before
        an earlier row of its rank; then the first bad MPI event: a
        rank outside ``[0, nranks)``, a non-finite time, or an end
        before its start.  A pass is marked in :attr:`memo`."""
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
        c = self.columns
        bad_rank = (c["rank"] < 0) | (c["rank"] >= self.nranks)
        backwards = c["tend"] < c["tstart"]
        no_count = (self.posix_mask() & (c["count"] < 0)
                    & self.func_lookup(DATA_OPS)[c["func_id"]])
        bad = np.flatnonzero(bad_rank | backwards | no_count)
        if bad.size:
            i = int(bad[0])
            rid = int(c["rid"][i])
            if bad_rank[i]:
                raise TraceError(
                    f"record {rid} has bad rank {int(c['rank'][i])}")
            if backwards[i]:
                raise TraceError(f"record {rid} ends before it starts")
            raise TraceError(
                f"data record {rid} ({self.funcs[c['func_id'][i]]}) "
                f"lacks a byte count")
        t = c["tstart"]
        if not bool(np.all(t[1:] >= t[:-1])):
            # rows are in start order, so only a trace whose ranks
            # interleave out of order pays for the per-rank check
            order = np.argsort(c["rank"], kind="stable")
            rank, t = c["rank"][order], t[order]
            early = np.flatnonzero((rank[1:] == rank[:-1]) & (t[1:] < t[:-1]))
            if early.size:
                i = int(order[early + 1].min())
                raise TraceError(
                    f"record {int(c['rid'][i])} starts before an earlier "
                    f"record of rank {int(c['rank'][i])}")
        ev_bad_rank = (c["ev_rank"] < 0) | (c["ev_rank"] >= self.nranks)
        nonfinite = ~(np.isfinite(c["ev_tstart"])
                      & np.isfinite(c["ev_tend"]))
        ev_backwards = c["ev_tend"] < c["ev_tstart"]
        bad = np.flatnonzero(ev_bad_rank | nonfinite | ev_backwards)
        if bad.size:
            i = int(bad[0])
            eid = int(c["ev_eid"][i])
            if ev_bad_rank[i]:
                raise TraceError(
                    f"MPI event {eid} has bad rank {int(c['ev_rank'][i])}")
            if nonfinite[i]:
                raise TraceError(f"MPI event {eid} has a non-finite time")
            raise TraceError(f"MPI event {eid} ends before it starts")
        self.memo["valid"] = True

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

    def to_trace(self) -> "Trace":
        """A read-only :class:`~repro.tracer.trace.Trace` view over
        these columns, in O(1): nothing is copied or built."""
        from repro.tracer.trace import Trace

        return Trace.view(self)

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
    except (AnalysisError, TraceError) as exc:
        raise _format_error(p, str(exc)) from None
    return ct


__all__ = [
    "ARG_ORDER",
    "ColumnarTrace",
    "EVENT_COLUMNS",
    "EVENT_FIELDS",
    "I64_NONE",
    "LAYER_TABLE",
    "PROMOTED_ARGS",
    "RECORD_COLUMNS",
    "RECORD_FIELDS",
    "RowView",
    "build_events",
    "build_records",
    "encode",
    "interned",
    "RTRC_MAGIC",
    "RTRC_VERSION",
    "read_rtrc",
    "write_rtrc",
]
