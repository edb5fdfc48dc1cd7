"""Golden trace bytes at scale: three configurations at 256 ranks.

``tests/sim/test_trace_golden.py`` pins every configuration at 8 and 32
ranks.  The per-rank bookkeeping of collectives, two-phase collective
writes and HDF5 metadata ownership only shows its shape at larger rank
counts, so these digests pin the ``.rtrc`` bytes of the three
configurations that lean on it hardest — FLASH-HDF5 fbs (HDF5 metadata
and MPI-IO collective writes), Nek5000-POSIX (world collectives) and
LAMMPS-ADIOS (sub-communicator gathers) — at (256 ranks, seed 3).

A change that is meant to alter traces updates these digests in the
same commit and says why.
"""

import hashlib

import pytest

from repro.apps.registry import all_variants
from repro.tracer.columnar import write_rtrc

VARIANTS = {v.label: v for v in all_variants()}
NRANKS, SEED = 256, 3

#: configuration label -> sha256 of its .rtrc bytes at (NRANKS, SEED)
GOLDEN = {
    "FLASH-HDF5 fbs":
        "e44d192cd44e1bc0984198a119b2df6fdacd24b724408512984753a5cba4517c",
    "LAMMPS-ADIOS":
        "4db9afbee907b2843c7a5a66f875376e5a54483e728c7a0dac8ed678fd7e17ea",
    "Nek5000-POSIX":
        "452e69d075ecf4ee18ee773814c19882664605da7bc6b618b6111d1e903555ee",
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_rtrc_bytes_match_golden_at_scale(tmp_path, label):
    trace = VARIANTS[label].run(nranks=NRANKS, seed=SEED)
    path = tmp_path / "trace.rtrc"
    write_rtrc(trace.columnar, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[label]
