"""Unit tests: the simulation kernel."""

import gc
import weakref

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator


def _boom():
    raise RuntimeError("boom")


class TestScheduling:
    def test_schedule_relative_delay(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]
        assert sim.now == 5.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(float("nan"), lambda: None)

    def test_infinite_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule_at(float("inf"), lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_cancel_after_fire_keeps_pending_count_exact(self):
        """Regression: cancelling an already-fired event used to pass
        the alive check and decrement the live count for an event no
        longer in the heap, making pending_events undercount."""
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.pending_events == 1
        sim.cancel(fired)  # spent event: must be a no-op
        assert sim.pending_events == 1
        assert sim.run() == 1  # the live event still fires

    def test_cancel_after_fire_cannot_hide_live_events(self):
        """The undercount's worst symptom: an 'empty' queue (len 0,
        falsy) while live events remain scheduled."""
        sim = Simulator()
        done = []
        first = sim.schedule(1.0, lambda: None)
        sim.run(until=1.0)
        sim.schedule(2.0, done.append, "late")
        sim.cancel(first)
        assert sim.pending_events == 1  # pre-fix: 0
        sim.run()
        assert done == ["late"]


class TestRunLoop:
    def test_run_executes_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, 2)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(3.0, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_priority_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "timer", priority=EventPriority.TIMER)
        sim.schedule(1.0, order.append, "delivery", priority=EventPriority.DELIVERY)
        sim.run()
        assert order == ["delivery", "timer"]

    def test_until_horizon_leaves_future_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(10.0, seen.append, 10)
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.pending_events == 1
        assert sim.now == 5.0

    def test_until_is_inclusive(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, 5)
        sim.run(until=5.0)
        assert seen == [5]

    def test_until_advances_clock_on_empty_queue(self):
        """Regression: with nothing scheduled the horizon is still the
        binding constraint, so the clock must advance to it."""
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_until_advances_clock_when_queue_drains(self):
        """Regression: a queue that drains mid-run used to leave the
        clock at the last event, skewing latencies read from now."""
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_until_in_the_past_never_rewinds_the_clock(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0
        sim.run(until=1.0)
        assert sim.now == 3.0

    def test_stop_leaves_clock_at_last_event(self):
        """The horizon only binds when the run actually reaches it: a
        stop() from a callback halting earlier keeps the event-time
        clock."""
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.run(until=10.0)
        assert sim.now == 1.0

    def test_max_events_leaves_clock_at_last_event(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(until=100.0, max_events=2)
        assert sim.now == 2.0

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        def reschedule():
            sim.schedule(1.0, reschedule)
        sim.schedule(1.0, reschedule)
        executed = sim.run(max_events=10)
        assert executed == 10

    def test_stop_halts_the_current_run_only(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), sim.stop if i == 2 else (lambda: None))
        assert sim.run() == 3
        assert sim.now == 3.0 and sim.pending_events == 7
        assert sim.run() == 7

    def test_stop_method_halts_after_current_event(self):
        sim = Simulator()
        seen = []
        def first():
            seen.append(1)
            sim.stop()
        sim.schedule(1.0, first)
        sim.schedule(2.0, seen.append, 2)
        sim.run()
        assert seen == [1]

    def test_run_returns_executed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run() == 5

    def test_run_not_reentrant(self):
        sim = Simulator()
        error = {}
        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                error["e"] = exc
        sim.schedule(1.0, nested)
        sim.run()
        assert "e" in error

    def test_step_not_reentrant(self):
        sim = Simulator()
        error = {}
        def nested():
            try:
                sim.step()
            except SimulationError as exc:
                error["e"] = exc
        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: None)
        assert sim.step()
        assert "e" in error and sim.pending_events == 1

    def test_step_is_a_one_event_run(self):
        """A stop() the stepped event requests ends that step only, and
        a stop() requested outside a run is dropped."""
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        for i in range(3):
            sim.schedule(float(i + 2), lambda: None)
        assert sim.step() and sim.now == 1.0
        assert sim.step() and sim.now == 2.0
        sim.stop()
        assert sim.run() == 2 and not sim.step()
        assert sim.now == 4.0 and sim.executed_events == 4

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []
        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)
        sim.schedule(1.0, chain, 1)
        sim.run()
        assert seen == [1, 2, 3]
        assert sim.now == 3.0


class TestFiring:
    def test_callback_receives_its_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, seen.append, 42)
        sim.run()
        assert seen == [42]

    def test_raising_callback_leaves_its_event_spent(self):
        """The kernel marks an event fired before calling back, so an
        event whose callback raised is spent: cancelling it is a no-op."""
        sim = Simulator()
        event = sim.schedule(1.0, _boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert event.fired and not event.alive
        sim.cancel(event)
        assert not event.cancelled

    def test_kernel_runs_again_after_a_raise(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, _boom)
        sim.schedule(2.0, seen.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.now == 1.0 and sim.pending_events == 1
        assert sim.run() == 1
        assert seen == ["after"]


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def build_and_run(seed):
            sim = Simulator(seed=seed)
            order = []
            rng = sim.rng.stream("jitter")
            for i in range(20):
                sim.schedule(rng.uniform(0, 10), order.append, i)
            sim.run()
            return order

        assert build_and_run(7) == build_and_run(7)

    def test_different_seeds_differ(self):
        def build_and_run(seed):
            sim = Simulator(seed=seed)
            order = []
            rng = sim.rng.stream("jitter")
            for i in range(20):
                sim.schedule(rng.uniform(0, 10), order.append, i)
            sim.run()
            return order

        assert build_and_run(1) != build_and_run(2)


class TestEventSlab:
    """The slab recycles spent events only when provably unreferenced."""

    def test_anonymous_events_recycle_and_handles_veto(self):
        sim = Simulator()
        fired = []
        held = sim.schedule(0.1, fired.append, "held")
        sim.schedule(0.2, fired.append, "anon")
        sim.run()
        assert fired == ["held", "anon"]
        free = sim._free
        # The anonymous event went back to the slab; the held one kept
        # its identity and fields because this test still references it.
        assert len(free) == 1
        assert free[0] is not held
        assert held.fired and held.fn is not None

    def test_cancel_after_fire_still_a_noop_with_slab(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.1, fired.append, "a")
        sim.run()
        sim.cancel(handle)  # dead handle: must not corrupt anything
        assert not handle.cancelled
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]
        assert sim.pending_events == 0

    def test_recycled_shell_serves_next_schedule(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run()
        shell = sim._free[-1]
        seq_before = shell.seq
        event = sim.schedule(0.5, lambda: None)
        assert event is shell
        assert event.seq != seq_before
        assert not event.fired and not event.cancelled

    def test_cancelled_dead_head_recycles(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(0.1, fired.append, "victim")
        sim.schedule(0.2, fired.append, "other")
        sim.cancel(victim)
        del victim  # drop the external reference: recycling allowed
        sim.run()
        assert fired == ["other"]
        assert len(sim._free) == 2

    def test_reset_keeps_slab_and_clears_state(self):
        sim = Simulator(seed=3)
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        slab = len(sim._free)
        assert slab == 5
        sim.reset(seed=9)
        assert sim.now == 0.0
        assert sim.executed_events == 0
        assert sim.pending_events == 0
        assert len(sim._free) == slab
        order = []
        rng = sim.rng.stream("jitter")
        for i in range(5):
            sim.schedule(rng.uniform(0, 10), order.append, i)
        sim.run()
        # Same draws as a fresh seed-9 simulator: reset re-seeds fully.
        fresh = Simulator(seed=9)
        expected = []
        fresh_rng = fresh.rng.stream("jitter")
        for i in range(5):
            fresh.schedule(fresh_rng.uniform(0, 10), expected.append, i)
        fresh.run()
        assert order == expected


class _Holder:
    """An object a test watches die through a weak reference."""

    def method(self, *args):
        pass


class _Owner:
    """Owns a periodic tick the way a chain does: the callback is a bound
    method, and the owner keeps the park handle."""

    def __init__(self, sim):
        self.sim = sim
        self.park = sim.park(sim.schedule(1.0, self.tick), 1.0)

    def tick(self):
        self.sim.schedule(1.0, self.tick)


class TestWhatTheHeapKeeps:
    """A cancelled event or a parked tick waits in the heap as a shell
    that reaches nothing its callback did."""

    def test_cancelled_event_in_the_heap_holds_no_callback_or_args(
        self, refcounting_only
    ):
        sim = Simulator()
        owner, argument = _Holder(), _Holder()
        watched = [weakref.ref(owner), weakref.ref(argument)]
        fired = []
        sim.schedule(10.0, fired.append, "live")
        event = sim.schedule(5.0, owner.method, argument)
        sim.cancel(event)
        del owner, argument
        assert len(sim._heap) == 2  # the shell is still in the heap
        assert event.fn is None and event.args is None
        assert [ref() for ref in watched] == [None, None]
        assert sim.run() == 1 and fired == ["live"]

    def test_parked_tick_does_not_keep_its_owner_alive(self):
        sim = Simulator()
        owner = _Owner(sim)
        watched = weakref.ref(owner)
        assert sim.run(until=2.5) == 2
        assert owner.park.firings == 2
        del owner
        gc.collect()
        assert watched() is None
        assert sim.run(until=5.5) == 3
        assert sim.executed_events == 5 and sim.pending_events == 1
