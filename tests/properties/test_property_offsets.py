"""Property test: offset reconstruction is exact on random op programs.

Hypothesis generates a random single-rank program over a few descriptors
(sequential/positioned reads and writes, seeks of every whence, append
mode, truncation, dup).  The program runs on the simulated POSIX API and
the analyzer's reconstructed offsets must equal the simulator's ground
truth for every data operation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offsets import reconstruct_offsets
from repro.posix import flags as F
from tests.conftest import SimHarness

op = st.one_of(
    st.tuples(st.just("open"), st.integers(0, 2), st.booleans(),
              st.booleans()),           # (path idx, trunc?, append?)
    st.tuples(st.just("close")),
    st.tuples(st.just("write"), st.integers(1, 64)),
    st.tuples(st.just("read"), st.integers(1, 64)),
    st.tuples(st.just("pwrite"), st.integers(0, 128), st.integers(1, 32)),
    st.tuples(st.just("pread"), st.integers(0, 128), st.integers(1, 32)),
    st.tuples(st.just("seek_set"), st.integers(0, 128)),
    st.tuples(st.just("seek_cur"), st.integers(-16, 64)),
    st.tuples(st.just("seek_end"), st.integers(-16, 16)),
    st.tuples(st.just("ftruncate"), st.integers(0, 96)),
    st.tuples(st.just("dup")),
)


@given(st.lists(op, max_size=40))
@settings(max_examples=60, deadline=None)
def test_reconstruction_matches_ground_truth(ops):
    h = SimHarness(nranks=1)

    def program(ctx):
        px = ctx.posix
        fds: list[int] = []

        def live_fd():
            return fds[-1] if fds else None

        for action in ops:
            kind = action[0]
            try:
                if kind == "open":
                    _, pidx, trunc, append = action
                    fl = F.O_RDWR | F.O_CREAT
                    if trunc:
                        fl |= F.O_TRUNC
                    if append:
                        fl |= F.O_APPEND
                    fds.append(px.open(f"/p{pidx}", fl))
                elif live_fd() is None:
                    continue
                elif kind == "close":
                    px.close(fds.pop())
                elif kind == "write":
                    px.write(live_fd(), action[1])
                elif kind == "read":
                    px.read(live_fd(), action[1])
                elif kind == "pwrite":
                    px.pwrite(live_fd(), action[2], action[1])
                elif kind == "pread":
                    px.pread(live_fd(), action[2], action[1])
                elif kind == "seek_set":
                    px.lseek(live_fd(), action[1], F.SEEK_SET)
                elif kind == "seek_cur":
                    px.lseek(live_fd(), action[1], F.SEEK_CUR)
                elif kind == "seek_end":
                    px.lseek(live_fd(), action[1], F.SEEK_END)
                elif kind == "ftruncate":
                    px.ftruncate(live_fd(), action[1])
                elif kind == "dup":
                    fds.append(px.dup(live_fd()))
            except ValueError:
                pass  # negative seek target: op rejected, state unchanged
        for fd in fds:
            px.close(fd)

    h.run(program, align=False)
    trace = h.trace()
    gt = {r.rid: r.gt_offset for r in trace.posix_data_records
          if r.gt_offset is not None}
    accs = reconstruct_offsets(trace)
    resolved = {a.rid: a.offset for a in accs}
    for rid, true_offset in gt.items():
        if rid in resolved:  # zero-length accesses are dropped
            assert resolved[rid] == true_offset
