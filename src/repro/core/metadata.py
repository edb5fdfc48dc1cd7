"""Metadata-operation usage analysis (paper §6.4, Figure 3).

For every POSIX metadata/utility operation observed in a trace, report
which layer issued it, bucketed the way the paper's Figure 3 does:
the MPI library (our MPI-IO layer), HDF5, or "application / other
library" (which absorbs NetCDF, ADIOS, and Silo since Recorder does not
trace those)."""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.tracer.events import Layer, METADATA_OPS
from repro.tracer.trace import Trace


class LayerGroup(str, enum.Enum):
    """Figure 3's issuer buckets."""

    MPI = "MPI"
    HDF5 = "HDF5"
    APPLICATION = "application/other"

    def __str__(self) -> str:
        return self.value


def group_of(issuer: Layer) -> LayerGroup:
    if issuer in (Layer.MPI, Layer.MPIIO):
        return LayerGroup.MPI
    if issuer is Layer.HDF5:
        return LayerGroup.HDF5
    return LayerGroup.APPLICATION


@dataclass
class MetadataUsage:
    """Which metadata ops a run used, and who issued them."""

    #: op name -> issuer groups observed
    ops: dict[str, set[LayerGroup]] = field(default_factory=dict)
    #: (op name, group) -> call count
    counts: dict[tuple[str, LayerGroup], int] = field(
        default_factory=lambda: defaultdict(int))

    @property
    def op_names(self) -> list[str]:
        return sorted(self.ops)

    def used_by(self, op: str) -> set[LayerGroup]:
        return self.ops.get(op, set())

    def count(self, op: str, group: LayerGroup | None = None) -> int:
        if group is not None:
            return self.counts.get((op, group), 0)
        return sum(v for (name, _), v in self.counts.items() if name == op)


def metadata_usage(trace: Trace) -> MetadataUsage:
    """Collect Figure 3's (operation × issuing layer) usage for one run.

    Only the rows the metadata function mask selects are visited."""
    ct = trace.columnar
    c = ct.columns
    rows = np.flatnonzero(ct.posix_mask()
                          & ct.func_lookup(METADATA_OPS)[c["func_id"]])
    usage = MetadataUsage()
    layers = tuple(Layer)
    for func_id, issuer_id in zip(c["func_id"][rows].tolist(),
                                  c["issuer_id"][rows].tolist()):
        func, grp = ct.funcs[func_id], group_of(layers[issuer_id])
        usage.ops.setdefault(func, set()).add(grp)
        usage.counts[(func, grp)] += 1
    return usage


def unused_operations(usage: MetadataUsage) -> list[str]:
    """Monitored metadata ops the run never called (§6.4's observation
    that most of the POSIX metadata surface goes unused)."""
    return sorted(METADATA_OPS - set(usage.ops))
