"""Property test: a RankClock's two times stay in step and never go back.

``true_time`` and ``local_time`` are plain fields that only ``advance``
and ``sync_to`` write.  After any sequence of those calls the local time
must be exactly ``true_time + skew`` (the sum the trace's timestamps
are made of), neither time may have moved backward, and ``advance``
must still reject a negative, NaN or infinite step without moving.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import RankClock

step = st.one_of(
    st.tuples(st.just("advance"),
              st.floats(0.0, 1e-2, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("sync_to"),
              st.floats(-1.0, 2.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("reject"),
              st.sampled_from([-1e-9, -1.0, math.nan, math.inf, -math.inf])),
)


@given(skew=st.floats(-2e-5, 2e-5, allow_nan=False),
       steps=st.lists(step, max_size=40))
@settings(max_examples=200, deadline=None)
def test_clock_fields_stay_in_step(skew, steps):
    clock = RankClock(3, skew=skew)
    assert clock.local_time == clock.true_time + clock.skew
    for action, value in steps:
        before = clock.true_time, clock.local_time
        if action == "advance":
            assert clock.advance(value) == clock.true_time
        elif action == "sync_to":
            assert clock.sync_to(value) == clock.true_time
            assert clock.true_time >= value
        else:
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                clock.advance(value)
            assert (clock.true_time, clock.local_time) == before
        assert clock.local_time == clock.true_time + clock.skew
        assert clock.true_time >= before[0]
        assert clock.local_time >= before[1]
