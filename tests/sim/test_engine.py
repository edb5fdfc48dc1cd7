"""Tests for the deterministic cooperative engine and virtual clocks."""

import itertools
import os
import threading

import pytest

from repro.apps.base import AppConfig, run_application
from repro.apps.registry import all_variants, find_variant
from repro.errors import DeadlockError, SimulationError
from repro.mpi.comm import Communicator, MPIWorld
from repro.obs import registry as obs
from repro.sim.clock import RankClock
from repro.sim.engine import RUSAGE_THREAD, SimConfig, SimEngine
from repro.tracer.columnar import write_rtrc
from tests.sim.reference import resume_order

#: the driving thread runs the default policy, so rank threads switch
SWITCHES_POLICY = (hasattr(os, "SCHED_BATCH")
                   and os.sched_getscheduler(0) == os.SCHED_OTHER)


class TestRankClock:
    def test_advance_and_skew(self):
        c = RankClock(0, skew=5e-6)
        c.advance(1e-3)
        assert c.true_time == pytest.approx(1e-3)
        assert c.local_time == pytest.approx(1e-3 + 5e-6)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            RankClock(0).advance(-1)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_advance_rejected(self, dt):
        # NaN passes a plain ``dt < 0`` check and would poison the ready
        # heap's keys; inf would freeze the rank past every other
        c = RankClock(0)
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            c.advance(dt)
        assert c.true_time == 0.0

    def test_sync_never_moves_backward(self):
        c = RankClock(0)
        c.advance(2.0)
        c.sync_to(1.0)
        assert c.true_time == 2.0
        c.sync_to(3.0)
        assert c.true_time == 3.0


class TestSimConfig:
    def test_rejects_zero_ranks(self):
        with pytest.raises(SimulationError, match="nranks must be >= 1"):
            SimConfig(nranks=0)

    def test_rejects_negative_seed(self):
        # one-line diagnosis here, not numpy's SeedSequence error later
        with pytest.raises(SimulationError, match="seed must be >= 0"):
            SimConfig(seed=-1)

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

    @pytest.mark.parametrize("skew", [-5, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_skew(self, skew):
        # one-line diagnosis here, not a silent zero skew or numpy's
        # OverflowError from the skew draw
        with pytest.raises(SimulationError,
                           match="clock_skew_us must be finite and >= 0"):
            SimConfig(clock_skew_us=skew)


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
            ctx.engine.wait_until(ctx.rank, lambda: False, "never",
                                  key="never")

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
                ctx.engine.notify("box")
                ctx.engine.checkpoint(0)
            else:
                ctx.engine.wait_until(1, lambda: bool(box), "waiting",
                                      key="box")
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

        def fire(t):
            box.append(7)
            engine.notify("box")

        engine.schedule(1e-6, fire)

        def program(ctx):
            ctx.engine.advance(0, 2e-6)
            ctx.engine.wait_until(0, lambda: bool(box), "box", key="box")
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


class TestBatchPolicy:
    """Rank threads run under ``SCHED_BATCH``; the driving thread does not.

    A woken ``SCHED_BATCH`` thread does not preempt the thread that woke
    it, so a rank handoff costs one context switch.  Where the policy is
    missing or refused, the run is the same run, byte for byte.
    """

    @pytest.mark.skipif(not hasattr(os, "sched_getscheduler"),
                        reason="no scheduling policies on this platform")
    def test_rank_threads_run_under_sched_batch(self):
        before = os.sched_getscheduler(0)
        policies = SimEngine(SimConfig(nranks=16)).run(
            lambda ctx: os.sched_getscheduler(0))
        assert policies == [os.SCHED_BATCH] * 16
        assert os.sched_getscheduler(0) == before

    @pytest.mark.parametrize("refusal", ["raises", "missing"])
    def test_refused_policy_changes_no_trace_byte(self, monkeypatch,
                                                  tmp_path, refusal):
        variant = next(v for v in all_variants()
                       if v.label == "FLASH-HDF5 fbs")

        def rtrc_bytes(name):
            path = tmp_path / name
            write_rtrc(variant.run(nranks=8, seed=7).columnar, path)
            return path.read_bytes()

        expected = rtrc_bytes("plain.rtrc")
        refused = []
        if refusal == "raises":
            def refuse(*args):
                refused.append(args)
                raise PermissionError(1, "Operation not permitted")

            monkeypatch.setattr(os, "sched_setscheduler", refuse,
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_setscheduler", raising=False)
        assert rtrc_bytes("refused.rtrc") == expected
        if refusal == "raises" and SWITCHES_POLICY:
            assert len(refused) == 8  # every rank thread asked once

    @pytest.mark.skipif(RUSAGE_THREAD is None,
                        reason="no per-thread resource usage")
    def test_context_switches_are_counted(self):
        def program(ctx, cfg):
            for _ in range(10):
                ctx.comm.barrier()

        with obs.collecting() as reg:
            run_application(AppConfig(application="barriers", nranks=16,
                                      seed=7), program)
            snapshot = reg.snapshot()
        assert snapshot["sim.context_switches"]["value"] > 0
        assert "sim.preemptions" in snapshot


class TestInstruments:
    """The engine calls its repro.obs instruments only when metrics were
    on when it was built, and then counts exactly what it always did."""

    def test_metrics_off_engine_calls_no_instrument(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a metrics-off engine called an instrument")

        for name in ("inc", "set", "set_max", "observe"):
            monkeypatch.setattr(obs._NullInstrument, name, refuse)
        engine = SimEngine(SimConfig(nranks=4, seed=7))
        world = MPIWorld(engine)
        fired: list[float] = []

        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                ctx.engine.schedule(5e-4, fired.append)
            for _ in range(3):
                ctx.engine.advance(ctx.rank, 1e-4 * (ctx.rank + 1))
                ctx.engine.checkpoint(ctx.rank)
                comm.allreduce(1.0)
            if ctx.rank == 0:
                comm.send(1, "baton")
            elif ctx.rank == 1:
                comm.recv(0)
            comm.barrier()

        engine.run(program, lambda ctx: {"comm": Communicator(world, ctx)})
        assert fired == [5e-4]

    def test_metrics_on_counts_are_unchanged(self):
        # FLASH-HDF5 fbs at 4 ranks, seed 7, as counted before the
        # per-event path was shortened
        variant = find_variant("FLASH", "HDF5", "fbs")
        with obs.collecting() as reg:
            variant.run(nranks=4, seed=7)
            snapshot = reg.snapshot()
        assert snapshot["sim.checkpoints"]["value"] == 1773
        assert snapshot["sim.blocks"]["value"] == 675


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
        # the failed check and the passing re-check after the notify; the
        # rank resumes on that re-check without a third
        assert checks[0] == 2

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


class TestCollectiveWakeups:
    """A woken collective member resumes once.

    The rank that completes a collective moves every member's clock to
    the exit time, so each member wakes at the key its next step has.
    At a world barrier the completing rank hands control to the lowest
    member, which runs on until its next step, and so on: p switches per
    barrier.  A member woken at its stale arrival time would resume,
    find it is no longer first, and hand control straight back: 2p - 1.
    """

    BARRIERS = 50

    @pytest.mark.parametrize(("nranks", "switches", "checkpoints", "blocks"),
                             [(16, 831, 832, 780),
                              (64, 3327, 3328, 3276)])
    def test_barrier_member_resumes_once(self, nranks, switches,
                                         checkpoints, blocks):
        def program(ctx, cfg):
            for _ in range(self.BARRIERS):
                ctx.comm.barrier()

        cfg = AppConfig(application="barriers", nranks=nranks, seed=7)
        with obs.collecting() as reg:
            _, resumed = resume_order(
                SimEngine, lambda: run_application(cfg, program))
            snapshot = reg.snapshot()
        # a switch is two consecutive resumes by different ranks: 52
        # barriers with the harness's start and end barrier, p switches
        # each, less the first dispatch (from the driving thread)
        assert sum(a != b for a, b in zip(resumed, resumed[1:])) == switches
        # the work is the same as with stale wakeups: one checkpoint per
        # barrier per rank, and a block for each member that waited
        assert snapshot["sim.checkpoints"]["value"] == checkpoints
        assert snapshot["sim.blocks"]["value"] == blocks


class TestAbortTeardown:
    """An abort releases every parked rank exactly once.

    A rank permit is a raw lock: releasing one that is not held raises,
    and a rank that waits on its permit after the abort waits forever.
    So every rank here re-enters the engine after the abort, and the run
    must still end with the original error and no rank thread left.
    """

    @pytest.mark.parametrize("nranks", [8, 64])
    def test_abort_with_reentry_ends_the_run(self, monkeypatch, nranks):
        thread_errors: list[BaseException] = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: thread_errors.append(args.exc_value))

        def program(ctx, cfg):
            if ctx.rank == 3:
                ctx.posix.mkdir("/failing")
                raise RuntimeError("rank 3 failed")
            try:
                if ctx.rank % 2:
                    ctx.comm.recv(ctx.rank - 1)  # nobody sends
                else:
                    ctx.comm.barrier()  # rank 3 never arrives
            except SimulationError:
                ctx.comm.barrier()
                raise

        outcome: list[BaseException] = []

        def drive():
            try:
                run_application(AppConfig(application="abort",
                                          nranks=nranks, seed=7), program)
            except Exception as exc:
                outcome.append(exc)

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout=10)
        assert not driver.is_alive(), "the aborted run did not end"
        assert len(outcome) == 1
        assert isinstance(outcome[0], RuntimeError)
        assert str(outcome[0]) == "rank 3 failed"
        assert thread_errors == []
        alive = [t.name for t in threading.enumerate()
                 if t.name.startswith("simrank-") and t.is_alive()]
        assert alive == []
