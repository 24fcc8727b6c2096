"""Unit tests: event records and the kernel's event queue."""

import random

import pytest

from repro.sim.events import Event, EventPriority, make_event
from repro.sim.kernel import Simulator


def _noop():
    return None


class TestEvent:
    def test_sort_key_orders_by_time_first(self):
        early = make_event(1.0, _noop)
        late = make_event(2.0, _noop)
        assert early.sort_key() < late.sort_key()

    def test_sort_key_breaks_time_ties_by_priority(self):
        delivery = make_event(1.0, _noop, priority=EventPriority.DELIVERY)
        timer = make_event(1.0, _noop, priority=EventPriority.TIMER)
        assert delivery.sort_key() < timer.sort_key()

    def test_sort_key_breaks_full_ties_by_insertion_order(self):
        first = make_event(1.0, _noop, priority=EventPriority.TIMER)
        second = make_event(1.0, _noop, priority=EventPriority.TIMER)
        assert first.sort_key() < second.sort_key()

    def test_cancel_marks_dead(self):
        sim = Simulator()
        event = sim.schedule(1.0, _noop)
        assert event.alive
        sim.cancel(event)
        assert not event.alive

    def test_delivery_priority_is_below_timer(self):
        # A message arriving at the same instant as a deadline counts as
        # "in time" — the ordering the protocols rely on.
        assert EventPriority.DELIVERY < EventPriority.TIMER


class TestEventQueue:
    """The kernel's event queue: the heap ``Simulator`` owns.

    ``schedule``/``schedule_at`` push, ``cancel`` only marks, and
    ``run`` (``step`` is a one-event ``run``) is the only code that
    pops; ``pending_events`` counts the uncancelled entries when read.
    """

    def test_pop_returns_in_time_order(self):
        sim = Simulator()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for t in times:
            sim.schedule_at(t, _noop)
        popped = []
        while sim.step():
            popped.append(sim.now)
        assert popped == sorted(times)

    def test_len_counts_live_events_only(self):
        sim = Simulator()
        keep = sim.schedule(1.0, _noop)
        drop = sim.schedule(2.0, _noop)
        assert sim.pending_events == 2
        sim.cancel(drop)
        assert sim.pending_events == 1
        assert keep.alive
        # The cancelled entry stays in the heap until it reaches the head.
        assert len(sim._heap) == 2

    def test_pop_skips_cancelled(self):
        sim = Simulator()
        seen = []
        dead = sim.schedule(1.0, seen.append, "dead")
        sim.schedule(2.0, seen.append, "live")
        sim.cancel(dead)
        assert sim.step()
        assert seen == ["live"] and sim.now == 2.0
        # Discarding the dead head is not an executed event.
        assert sim.executed_events == 1

    def test_pop_empty_executes_nothing(self):
        sim = Simulator()
        assert not sim.step()
        assert sim.run() == 0
        assert sim.now == 0.0 and sim.executed_events == 0

    def test_cancelled_entries_drain_without_executing(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.cancel(sim.schedule(t, _noop))
        assert sim.pending_events == 0 and len(sim._heap) == 2
        assert not sim.step()
        assert sim._heap == [] and sim.now == 0.0

    def test_head_past_the_horizon_is_not_removed(self):
        sim = Simulator()
        event = sim.schedule(2.0, _noop)
        entry = sim._heap[0]
        assert sim.run(until=1.0, max_events=1) == 0
        assert sim.now == 1.0 and sim._heap == [entry] and event.alive
        assert sim.step() and sim.now == 2.0 and event.fired

    def test_cancelled_head_does_not_spend_the_event_budget(self):
        sim = Simulator()
        seen = []
        dead = sim.schedule(1.0, seen.append, "dead")
        sim.schedule(2.0, seen.append, "live")
        sim.cancel(dead)
        assert sim.run(max_events=1) == 1
        assert seen == ["live"]

    def test_cancelled_head_inside_the_horizon_is_discarded(self):
        sim = Simulator()
        dead = sim.schedule(1.0, _noop)
        live = sim.schedule(3.0, _noop)
        sim.cancel(dead)
        assert sim.run(until=2.0) == 0
        assert sim.now == 2.0
        assert [entry[3] for entry in sim._heap] == [live]

    def test_firing_order_is_the_sort_key_order(self):
        """Ties on time break by priority, then by scheduling order,
        whichever of ``schedule``/``schedule_at`` pushed the event."""
        rng = random.Random(7)
        sim = Simulator()
        fired, keyed = [], []
        for i in range(40):
            time = rng.choice([1.0, 2.0, 2.0, 3.5])
            priority = rng.choice(list(EventPriority))
            push = sim.schedule_at if rng.random() < 0.5 else sim.schedule
            keyed.append((push(time, fired.append, i, priority=priority).sort_key(), i))
        assert sim.run() == 40
        assert fired == [i for _, i in sorted(keyed)]

    def test_event_scheduled_by_a_callback_queues_behind_equal_keys(self):
        sim = Simulator()
        order = []
        timer, delivery = EventPriority.TIMER, EventPriority.DELIVERY

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "same-priority", priority=timer)
            sim.schedule(0.0, order.append, "delivery", priority=delivery)

        sim.schedule(1.0, first, priority=timer)
        sim.schedule(1.0, order.append, "queued", priority=timer)
        sim.run()
        assert order == ["first", "delivery", "queued", "same-priority"]

    def test_clear_empties(self):
        """``reset`` drops every pending event: none of them fires."""
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, seen.append, t)
        sim.reset()
        assert sim.pending_events == 0 and sim._heap == []
        assert sim.run() == 0 and seen == []

    def test_reset_does_not_recycle_dropped_events(self):
        """The previous trial may still hold a dropped event, so
        ``reset`` leaves it as it was and keeps it off the slab."""
        sim = Simulator()
        held = sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        sim.reset()
        assert sim._free == []
        assert held.fn is _noop and held.alive

    def test_cancel_from_its_own_callback_is_a_noop(self):
        sim = Simulator()
        handle = []
        handle.append(sim.schedule(1.0, lambda: sim.cancel(handle[0])))
        sim.schedule(2.0, _noop)
        assert sim.step()
        assert handle[0].fired and not handle[0].cancelled
        assert sim.pending_events == 1

    def test_cancel_after_clear_does_not_undercount(self):
        """Cancelling an event ``reset`` dropped leaves the events
        scheduled since then counted and firing."""
        sim = Simulator()
        seen = []
        old = sim.schedule(1.0, seen.append, "old")
        sim.reset()
        sim.schedule(2.0, seen.append, "fresh")
        sim.cancel(old)
        assert sim.pending_events == 1
        assert sim.run() == 1 and seen == ["fresh"]

    def test_cancel_only_marks_the_event(self):
        sim = Simulator()
        event = sim.schedule(1.0, _noop)
        entry = sim._heap[0]
        sim.cancel(event)
        assert event.cancelled and sim._heap == [entry]
        assert sim.run() == 0 and sim._heap == []

    def test_recycled_cancelled_shell_is_live_again(self):
        sim = Simulator()
        sim.cancel(sim.schedule(1.0, _noop))
        sim.run()
        shell = sim._free[-1]
        event = sim.schedule(1.0, _noop)
        assert event is shell and event.alive
        assert sim.pending_events == 1


class TestQueueInvariants:
    """Randomized model check: ``pending_events`` equals a reference
    count, and each step fires the reference's earliest event, under
    arbitrary interleavings of schedule/step/cancel/reset."""

    OPS = (
        "schedule", "schedule", "schedule", "step", "cancel", "cancel_fired", "reset"
    )

    def _run_ops(self, seed: int, steps: int = 400) -> None:
        rng = random.Random(seed)
        sim = Simulator()
        live = set()  # reference model: scheduled, not cancelled, not fired
        fired = []
        for _ in range(steps):
            op = rng.choice(self.OPS)
            if op == "schedule":
                priority = rng.choice(list(EventPriority))
                if rng.random() < 0.5:
                    time = sim.now + rng.uniform(0, 100)
                    event = sim.schedule_at(time, _noop, priority=priority)
                else:
                    event = sim.schedule(rng.uniform(0, 100), _noop, priority=priority)
                live.add(event)
            elif op == "step":
                expected = min(live, key=Event.sort_key) if live else None
                assert sim.step() == bool(live)
                if expected is not None:
                    assert expected.fired, "step fired a non-earliest event"
                    assert sim.now == expected.time
                    live.discard(expected)
                    fired.append(expected)
            elif op == "cancel":
                if live and rng.random() < 0.9:
                    event = rng.choice(sorted(live, key=Event.sort_key))
                    sim.cancel(event)
                    live.discard(event)
            elif op == "cancel_fired":
                if fired:
                    event = rng.choice(fired)
                    sim.cancel(event)  # must be a no-op
                    assert not event.cancelled
            elif op == "reset":
                sim.reset(seed=seed)
                live.clear()
            assert sim.pending_events == len(live), f"after {op}"

    @pytest.mark.parametrize("seed", range(10))
    def test_interleaved_operations_keep_count_exact(self, seed):
        self._run_ops(seed)

    def test_drain_after_chaos_yields_time_order(self):
        rng = random.Random(99)
        sim = Simulator()
        drained = []
        events = [
            sim.schedule(rng.uniform(0, 10), drained.append, i) for i in range(50)
        ]
        for event in rng.sample(events, 20):
            sim.cancel(event)
        survivors = sorted((e for e in events if e.alive), key=Event.sort_key)
        expected = [e.args[0] for e in survivors]
        assert sim.run() == 30
        assert drained == expected
        assert sim.pending_events == 0 and sim._heap == []
