"""Host-speed normalization of the benchmark's timings.

The benchmark runs on a shared host whose speed drifts: on a 2-vCPU
2.0 GHz Xeon guest the same pass took anywhere from 2.3 to 3.6 s from
one minute to the next, with CPU time equal to wall time, so the drift
is not time spent descheduled and CPU time does not remove it.

A *probe* is a few milliseconds of fixed work that shares no code with
the repro package: an interpreter-bound loop over small objects, dicts
and sorts (what the analysis does) and a thread handoff ping-pong (what
the simulator's cooperative rank threads do).  The benchmark probes
right before every step it times and reports the step in *reference
seconds*::

    reference_s = wall_s * REFERENCE_PROBE_S / probe_s

that is, the step's wall time on a host where the probe takes
REFERENCE_PROBE_S.  A change to the repro package moves the step's
time and not the probe's, so it shows in full.
"""

from __future__ import annotations

import threading
from time import perf_counter

#: the probe's time on the idle host named above, in seconds
REFERENCE_PROBE_S = 0.0045
#: each part of the probe runs this often; its fastest run counts
PROBE_REPEATS = 2
HANDOFFS = 150


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _interpreter_work() -> int:
    groups: dict[int, list[int]] = {}
    for item in [_Item(i % 97, (i * 7919) % 1009) for i in range(6000)]:
        groups.setdefault(item.key, []).append(item.value)
    total = 0
    for values in groups.values():
        values.sort()
        for v in values:
            total += v if v & 1 else -v
    return total


def _handoff_work() -> None:
    turn = threading.Condition()
    state = [0]

    def partner() -> None:
        for _ in range(HANDOFFS):
            with turn:
                while state[0] != 1:
                    turn.wait()
                state[0] = 0
                turn.notify()

    thread = threading.Thread(target=partner, daemon=True)
    thread.start()
    for _ in range(HANDOFFS):
        with turn:
            state[0] = 1
            turn.notify()
            while state[0] != 0:
                turn.wait()
    thread.join()


def _fastest(work) -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        work()
        best = min(best, perf_counter() - t0)
    return best


def probe() -> float:
    """Seconds the fixed probe work takes on the host right now."""
    return _fastest(_interpreter_work) + _fastest(_handoff_work)


def to_reference(wall_s: float, probe_s: float) -> float:
    """``wall_s`` measured beside ``probe_s``, in reference seconds."""
    return wall_s * REFERENCE_PROBE_S / probe_s


def timed(work, probe_before: float | None = None):
    """Run ``work()`` between two probes and return its result, its wall
    seconds, its reference seconds at the mean of the probes, and the
    second probe, which a step that follows at once may reuse as its
    ``probe_before``."""
    if probe_before is None:
        probe_before = probe()
    t0 = perf_counter()
    out = work()
    wall_s = perf_counter() - t0
    probe_after = probe()
    reference_s = to_reference(wall_s, (probe_before + probe_after) / 2)
    return out, wall_s, reference_s, probe_after
