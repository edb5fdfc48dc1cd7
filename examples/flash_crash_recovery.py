#!/usr/bin/env python
"""Why FLASH calls H5Fflush: crash recovery during a checkpoint.

Replays the FLASH checkpoint trace with a data server crashing
mid-checkpoint and compares two disciplines:

* the real FLASH (``fbs``: H5Fflush between datasets) under **commit**
  semantics — every flushed dataset is journaled and durable, so
  recovery rolls back only the handful of writes in flight at the
  crash, and the crash-consistency checker certifies the contract;
* a no-flush variant under **session** semantics — close is the only
  publication point, so the crash throws away the entire uncommitted
  tail of the checkpoint written so far.

Either way correct recovery keeps its contract (no torn stripes, no
durable data lost); the *amount* of surviving data is what the flush
discipline buys.

    python examples/flash_crash_recovery.py [nranks]
"""

import sys

from repro.apps.registry import find_variant
from repro.core.offsets import reconstruct_offsets
from repro.core.semantics import Semantics
from repro.faults import CrashEvent, FaultPlan
from repro.pfs.config import PFSConfig
from repro.pfs.replay import replay_trace
from repro.tracer.events import CLOSE_OPS, COMMIT_OPS, Layer, OPEN_OPS
from repro.util.tables import AsciiTable

STRIPE = 1 << 16  # stripe small enough that FLASH files span OSTs


def count_ops(trace):
    """Client operations the replay will drive (the at_op time base)."""
    extent_of = {a.rid: a for a in reconstruct_offsets(trace)}
    n = 0
    for rec in trace.records:
        if rec.layer != Layer.POSIX or rec.path is None:
            continue
        if rec.func in OPEN_OPS or rec.func in CLOSE_OPS \
                or rec.func in COMMIT_OPS:
            n += 1
        elif rec.rid in extent_of:
            acc = extent_of[rec.rid]
            if not (acc.is_write and acc.nbytes <= 0):
                n += 1
    return n


def replay(trace, semantics):
    # crash halfway through the checkpoint, well after the flushing
    # variant has published its first datasets
    plan = FaultPlan(
        name="mid-checkpoint", seed=7,
        crashes=(CrashEvent("ost:0", at_op=count_ops(trace) // 2),))
    config = PFSConfig(semantics=semantics, stripe_size=STRIPE)
    return replay_trace(trace, config, plan=plan)


def lost_bytes(result):
    sim = result.simulator
    return sum(sum(len(r) for r in st.fault_regions())
               for st in sim.files.values())


def rolled_back(result):
    sim = result.simulator
    return sum(len(rec.discarded) + len(rec.torn)
               for st in sim.files.values() for rec in st.crashes)


def main() -> None:
    nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    variant = find_variant("FLASH", "HDF5", "fbs")

    flushed = replay(variant.run(nranks=nranks, seed=7),
                     Semantics.COMMIT)
    unflushed = replay(
        variant.run(nranks=nranks, seed=7,
                    flush_between_datasets=False),
        Semantics.SESSION)

    table = AsciiTable(
        ["discipline", "semantics", "writes rolled back",
         "bytes lost", "contract"],
        title=f"FLASH checkpoint vs a mid-checkpoint OST crash "
              f"(nranks={nranks})")
    for name, result in (("H5Fflush per dataset", flushed),
                         ("no flush", unflushed)):
        table.add_row(
            name, result.simulator.config.semantics.name.lower(),
            rolled_back(result), lost_bytes(result),
            "OK" if result.contract_ok else "VIOLATED")
    print(table.render())

    assert flushed.contract_ok and unflushed.contract_ok, \
        "correct recovery must keep the §5 durability contract"
    assert lost_bytes(flushed) < lost_bytes(unflushed), \
        "flushing must bound the loss below the no-flush tail"

    print(
        "\nWith per-dataset H5Fflush every completed dataset is "
        "journaled at the MDS, so the crash costs only the writes in "
        f"flight ({lost_bytes(flushed)} bytes here).  Without the "
        "flush, session recovery replays to the last close and the "
        f"entire uncommitted checkpoint tail ({lost_bytes(unflushed)} "
        "bytes) is gone.  In both cases the crash-consistency checker "
        "verifies nothing durable was lost and nothing torn is "
        "visible — the difference is purely how much the application "
        "chose to make durable mid-run.")


if __name__ == "__main__":
    main()
