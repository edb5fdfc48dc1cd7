"""The tuple path of ``Recorder.build_trace``, kept as the oracle for the
one-sort build.

:func:`aligned` moves every row's times back by its rank's origin,
sorts the rows with a Python key on ``(tstart, rank, id)`` and renumbers
the ids to their position, rebuilding each tuple on the way;
:func:`reference_encode` turns the aligned tuples into columns one row
at a time.  :func:`reference_build` chains the two over a
:class:`~repro.tracer.recorder.Recorder`'s buffers, so any buffers must
give columns equal to ``Recorder.build_trace``'s.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.tracer.columnar import (
    _ARG_COLUMN,
    _LAYER_INDEX,
    EVENT_COLUMNS,
    EVENT_FIELDS,
    I64_NONE,
    PROMOTED_ARGS,
    RECORD_COLUMNS,
    RECORD_FIELDS,
    ColumnarTrace,
    _column_representable,
    _opt_column,
    interned,
)
from repro.tracer.recorder import Recorder


def aligned(origins: list[float | None], rows: list[tuple]) -> list[tuple]:
    """``rows`` with times (fields 5 and 6) moved by their rank's origin,
    sorted by ``(tstart, rank, id)`` and renumbered to their position."""
    shift = [-(origin or 0.0) for origin in origins]
    moved = sorted(((*row[:5], row[5] + shift[row[1]],
                     row[6] + shift[row[1]], *row[7:]) for row in rows),
                   key=lambda row: (row[5], row[1], row[0]))
    return [(i, *row[1:]) for i, row in enumerate(moved)]


def reference_encode(nranks: int, records: list[tuple],
                     events: list[tuple] = (),
                     meta: dict[str, Any] | None = None) -> ColumnarTrace:
    """Columns from record and event tuples in the given row order, one
    row at a time."""
    records, events = list(records), list(events)
    r = dict(zip(RECORD_FIELDS, zip(*records) if records
                 else ((),) * len(RECORD_FIELDS)))
    e = dict(zip(EVENT_FIELDS, zip(*events) if events
                 else ((),) * len(EVENT_FIELDS)))
    funcs, func_id = interned(r["func"])
    paths, path_id = interned(r["path"])
    kinds, kind_id = interned(e["kind"])
    roles, role_id = interned(e["role"])
    cols = {"rid": r["rid"], "rank": r["rank"], "func_id": func_id,
            "layer_id": [_LAYER_INDEX[x] for x in r["layer"]],
            "issuer_id": [_LAYER_INDEX[x] for x in r["issuer"]],
            "tstart": r["tstart"], "tend": r["tend"], "path_id": path_id,
            "ev_eid": e["eid"], "ev_rank": e["rank"],
            "ev_kind_id": kind_id, "ev_role_id": role_id,
            "ev_tstart": e["tstart"], "ev_tend": e["tend"]}
    for name in ("fd", "offset", "count", "gt_offset"):
        cols[name] = _opt_column(r[name], r["rid"], name)
    promoted = {key: [I64_NONE] * len(records) for key in PROMOTED_ARGS}
    extras: dict[int, dict[str, Any]] = {}
    for i, args in enumerate(r["args"]):
        for key, value in (args or {}).items():
            if (key in promoted and type(value) is int
                    and _column_representable(value)):
                promoted[key][i] = value
            else:
                extras.setdefault(i, {})[key] = value
    for key, values in promoted.items():
        cols[_ARG_COLUMN[key]] = values
    cols["result_i"] = [I64_NONE] * len(records)
    results: dict[int, Any] = {}
    for i, value in enumerate(r["result"]):
        if type(value) is int and _column_representable(value):
            cols["result_i"][i] = value
        elif value is not None:
            results[i] = value
    return ColumnarTrace(
        nranks=int(nranks), meta=dict(meta or {}),
        columns={name: np.array(cols[name], dtype=dtype)
                 for name, dtype in RECORD_COLUMNS + EVENT_COLUMNS},
        funcs=funcs, paths=paths, kinds=kinds, roles=roles,
        match_keys=list(e["match_key"]), extras=extras, results=results)


def reference_build(recorder: Recorder,
                    meta: dict[str, Any] | None = None) -> ColumnarTrace:
    """What ``recorder.build_trace(meta=meta).columnar`` must equal."""
    origins = recorder._origins
    return reference_encode(recorder.nranks,
                            aligned(origins, recorder._records),
                            aligned(origins, recorder._mpi_events), meta)
