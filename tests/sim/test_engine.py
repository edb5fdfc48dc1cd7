"""Tests for the deterministic cooperative engine and virtual clocks."""

import itertools
import threading

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.clock import RankClock
from repro.sim.engine import SimConfig, SimEngine


class TestRankClock:
    def test_advance_and_skew(self):
        c = RankClock(0, skew=5e-6)
        c.advance(1e-3)
        assert c.true_time == pytest.approx(1e-3)
        assert c.local_time == pytest.approx(1e-3 + 5e-6)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            RankClock(0).advance(-1)

    def test_sync_never_moves_backward(self):
        c = RankClock(0)
        c.advance(2.0)
        c.sync_to(1.0)
        assert c.true_time == 2.0
        c.sync_to(3.0)
        assert c.true_time == 3.0


class TestSimConfig:
    def test_rejects_zero_ranks(self):
        with pytest.raises(SimulationError):
            SimConfig(nranks=0)

    def test_skew_draw_is_bounded_and_deterministic(self):
        a = SimEngine._draw_skews(SimConfig(nranks=16, seed=5,
                                            clock_skew_us=20))
        b = SimEngine._draw_skews(SimConfig(nranks=16, seed=5,
                                            clock_skew_us=20))
        assert a == b
        assert all(abs(s) <= 20e-6 for s in a)

    def test_zero_skew(self):
        skews = SimEngine._draw_skews(SimConfig(nranks=4))
        assert skews == [0.0] * 4


class TestSimEngine:
    def test_runs_all_ranks_and_collects_results(self):
        engine = SimEngine(SimConfig(nranks=5))
        results = engine.run(lambda ctx: ctx.rank * 10)
        assert results == [0, 10, 20, 30, 40]

    def test_scheduling_follows_virtual_time(self):
        """The rank that advances least runs most often first."""
        order: list[int] = []
        engine = SimEngine(SimConfig(nranks=2))

        def program(ctx):
            for _ in range(3):
                dt = 1e-6 if ctx.rank == 0 else 10e-6
                ctx.engine.advance(ctx.rank, dt)
                order.append(ctx.rank)
                ctx.engine.checkpoint(ctx.rank)

        engine.run(program)
        # rank 0 (cheap steps) completes all three before rank 1's second
        assert order.index(1) > order.index(0)
        assert order[:3].count(0) >= 2

    def test_exception_propagates(self):
        engine = SimEngine(SimConfig(nranks=3))

        def program(ctx):
            if ctx.rank == 1:
                raise RuntimeError("boom from rank 1")
            ctx.engine.checkpoint(ctx.rank)

        with pytest.raises(RuntimeError, match="boom from rank 1"):
            engine.run(program)

    def test_deadlock_detected(self):
        engine = SimEngine(SimConfig(nranks=2))

        def program(ctx):
            # both ranks wait for a condition nobody ever makes true
            ctx.engine.wait_until(ctx.rank, lambda: False, "never")

        with pytest.raises(DeadlockError) as exc:
            engine.run(program)
        assert set(exc.value.states) == {0, 1}
        assert "never" in next(iter(exc.value.states.values()))

    def test_wait_until_unblocks_on_state_change(self):
        engine = SimEngine(SimConfig(nranks=2))
        box: list[int] = []

        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.advance(0, 1e-3)
                ctx.engine.checkpoint(0)
                box.append(99)
                ctx.engine.checkpoint(0)
            else:
                ctx.engine.wait_until(1, lambda: bool(box), "waiting")
                return box[0]

        results = engine.run(program)
        assert results[1] == 99

    def test_engine_runs_once_only(self):
        engine = SimEngine(SimConfig(nranks=1))
        engine.run(lambda ctx: None)
        with pytest.raises(SimulationError):
            engine.run(lambda ctx: None)

    def test_context_service_attribute_access(self):
        engine = SimEngine(SimConfig(nranks=1))

        def services(ctx):
            return {"gadget": 123}

        def program(ctx):
            assert ctx.gadget == 123
            with pytest.raises(AttributeError):
                _ = ctx.missing
            return "ok"

        assert engine.run(program, services) == ["ok"]

    def test_scheduled_callbacks_fire_in_time_order(self):
        engine = SimEngine(SimConfig(nranks=1))
        fired: list[tuple[str, float]] = []
        engine.schedule(2e-6, lambda t: fired.append(("b", t)))
        engine.schedule(1e-6, lambda t: fired.append(("a", t)))
        engine.schedule(1e-6, lambda t: fired.append(("a2", t)))

        def program(ctx):
            ctx.engine.advance(0, 5e-6)
            ctx.engine.checkpoint(0)
            return list(fired)

        (seen,) = engine.run(program)
        # equal times fire in registration order; nothing fires before
        # some rank's clock reaches the callback time
        assert seen == [] or seen == fired
        assert fired == [("a", 1e-6), ("a2", 1e-6), ("b", 2e-6)]

    def test_scheduled_callback_interleaves_with_rank_steps(self):
        engine = SimEngine(SimConfig(nranks=1))
        log: list[str] = []
        engine.schedule(1.5e-6, lambda t: log.append("cb"))

        def program(ctx):
            for i in range(3):
                ctx.engine.advance(0, 1e-6)
                ctx.engine.checkpoint(0)
                log.append(f"step{i}")

        engine.run(program)
        # the callback lands after the step that crossed t=1.5us was
        # granted, but before the next step runs
        assert log.index("cb") < log.index("step2")

    def test_scheduled_callback_can_unblock_a_rank(self):
        engine = SimEngine(SimConfig(nranks=1))
        box: list[int] = []
        engine.schedule(1e-6, lambda t: box.append(7))

        def program(ctx):
            ctx.engine.advance(0, 2e-6)
            ctx.engine.wait_until(0, lambda: bool(box), "box")
            return box[0]

        assert engine.run(program) == [7]

    def test_scheduled_callback_failure_propagates(self):
        engine = SimEngine(SimConfig(nranks=2))

        def bomb(t):
            raise RuntimeError("scheduled boom")

        engine.schedule(1e-6, bomb)

        def program(ctx):
            ctx.engine.advance(ctx.rank, 5e-6)
            ctx.engine.checkpoint(ctx.rank)

        with pytest.raises(RuntimeError, match="scheduled boom"):
            engine.run(program)

    def test_per_rank_rng_deterministic(self):
        def program(ctx):
            return int(ctx.rng.integers(0, 10_000))

        a = SimEngine(SimConfig(nranks=3, seed=11)).run(program)
        b = SimEngine(SimConfig(nranks=3, seed=11)).run(program)
        c = SimEngine(SimConfig(nranks=3, seed=12)).run(program)
        assert a == b
        assert a != c


class TestKeyedWaits:
    def test_keyed_wait_rechecked_only_after_notify(self):
        engine = SimEngine(SimConfig(nranks=2))
        box: list[int] = []
        checks = [0]

        def has_mail():
            checks[0] += 1
            return bool(box)

        def program(ctx):
            if ctx.rank == 0:
                for _ in range(5):  # switches that must not poll rank 1
                    ctx.engine.advance(0, 1e-6)
                    ctx.engine.checkpoint(0)
                box.append(1)
                ctx.engine.notify("box")
                ctx.engine.checkpoint(0)
            else:
                ctx.engine.wait_until(1, has_mail, "mail", key="box")
                return box[0]

        assert engine.run(program) == [None, 1]
        # failed check, re-check after notify, passing check on resume
        assert checks[0] == 3

    def test_notify_of_unsatisfied_wait_parks_it_again(self):
        engine = SimEngine(SimConfig(nranks=2))
        box: list[int] = []

        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.notify("box")  # spurious: nothing changed
                ctx.engine.checkpoint(0)
                box.append(1)
                ctx.engine.notify("box")
                ctx.engine.checkpoint(0)
            else:
                ctx.engine.wait_until(1, lambda: bool(box), "mail",
                                      key="box")
                return box[0]

        assert engine.run(program) == [None, 1]

    def test_keyed_wait_is_not_polled(self):
        """A writer that forgets to notify leaves the waiter parked."""
        engine = SimEngine(SimConfig(nranks=2))
        box: list[int] = []

        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.advance(0, 1e-6)
                ctx.engine.checkpoint(0)  # rank 1 runs and parks
                box.append(1)
            else:
                ctx.engine.wait_until(1, lambda: bool(box), "mail",
                                      key="box")

        with pytest.raises(DeadlockError) as exc:
            engine.run(program)
        assert exc.value.states == {1: "mail"}

    def test_polled_wait_rechecked_at_every_dispatch(self):
        engine = SimEngine(SimConfig(nranks=2))
        box: list[int] = []

        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.checkpoint(0)
                box.append(1)  # no notify: the poll must see it
                ctx.engine.checkpoint(0)
            else:
                ctx.engine.wait_until(1, lambda: bool(box), "polled")
                return box[0]

        assert engine.run(program) == [None, 1]


class TestThreadExhaustion:
    def test_failed_thread_start_is_a_one_line_error(self, monkeypatch):
        real_start = threading.Thread.start
        calls = itertools.count(1)

        def start(thread):
            if next(calls) == 5:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        engine = SimEngine(SimConfig(nranks=16))
        with pytest.raises(SimulationError) as exc:
            engine.run(lambda ctx: None)
        monkeypatch.undo()
        message = str(exc.value)
        assert "\n" not in message
        assert "nranks=16" in message
        assert "only 4 rank threads" in message
        for thread in threading.enumerate():
            if thread.name.startswith("simrank-"):
                thread.join(timeout=10)
                assert not thread.is_alive(), thread.name
