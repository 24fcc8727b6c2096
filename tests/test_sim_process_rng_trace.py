"""Unit tests: processes, RNG registry, trace recorder."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.trace import TraceKind, TraceRecorder


class Ticker(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.fired = []

    def on_timer(self, timer_id):
        self.fired.append((timer_id, self.sim.now))


class TestProcessTimers:
    def test_timer_fires_at_deadline(self):
        sim = Simulator()
        p = Ticker(sim, "p")
        p.set_timer("t", 5.0)
        sim.run()
        assert p.fired == [("t", 5.0)]

    def test_rearm_cancels_previous(self):
        sim = Simulator()
        p = Ticker(sim, "p")
        p.set_timer("t", 5.0)
        p.set_timer("t", 9.0)
        sim.run()
        assert p.fired == [("t", 9.0)]

    def test_cancel_timer(self):
        sim = Simulator()
        p = Ticker(sim, "p")
        p.set_timer("t", 5.0)
        assert p.cancel_timer("t") is True
        assert p.cancel_timer("t") is False
        sim.run()
        assert p.fired == []

    def test_set_timer_at_in_past_fires_immediately(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        p = Ticker(sim, "p")
        p.set_timer_at("late", 3.0)  # already past
        sim.run()
        assert p.fired == [("late", 10.0)]

    def test_terminate_cancels_timers_and_records(self):
        sim = Simulator()
        p = Ticker(sim, "p")
        p.set_timer("t", 5.0)
        p.terminate(reason="done")
        sim.run()
        assert p.fired == []
        assert sim.trace.termination_time("p") == 0.0

    def test_terminate_idempotent(self):
        sim = Simulator()
        p = Ticker(sim, "p")
        p.terminate()
        p.terminate()
        assert sim.trace.count(kind=TraceKind.TERMINATE, actor="p") == 1

    def test_timer_pending(self):
        def timer_pending(process, timer_id):
            event = process._timers.get(timer_id)
            return event is not None and event.alive

        sim = Simulator()
        p = Ticker(sim, "p")
        assert not timer_pending(p, "t")
        p.set_timer("t", 1.0)
        assert timer_pending(p, "t")

    def test_timers_of_terminated_process_do_not_fire(self):
        sim = Simulator()
        p = Ticker(sim, "p")
        p.set_timer("t", 1.0)
        sim.schedule(0.5, p.terminate)
        sim.run()
        assert p.fired == []


class TestRng:
    def test_same_name_same_stream(self):
        reg = RngRegistry(42)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(42)
        a_first = r1.stream("a").random()
        r2 = RngRegistry(42)
        r2.stream("b")  # create b first
        a_second = r2.stream("a").random()
        assert a_first == a_second

    def test_different_names_different_sequences(self):
        reg = RngRegistry(42)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_fork_is_deterministic(self):
        a = RngRegistry(7).fork("child").stream("s").random()
        b = RngRegistry(7).fork("child").stream("s").random()
        assert a == b

    def test_shuffle_returns_copy(self):
        reg = RngRegistry(0)
        items = [1, 2, 3, 4]
        out = reg.shuffle("s", items)
        assert sorted(out) == items
        assert items == [1, 2, 3, 4]

    def test_known_streams_sorted(self):
        reg = RngRegistry(0)
        reg.stream("z")
        reg.stream("a")
        assert sorted(reg._streams) == ["a", "z"]


class TestTrace:
    def _make(self):
        t = TraceRecorder()
        t.record(1.0, TraceKind.SEND, "a", to="b")
        t.record(2.0, TraceKind.RECEIVE, "b", frm="a")
        t.record(3.0, TraceKind.TERMINATE, "a")
        return t

    def test_record_order_and_seq(self):
        t = self._make()
        assert [e.seq for e in t] == [0, 1, 2]

    def test_filter_by_kind(self):
        t = self._make()
        assert len(t.events(kind=TraceKind.SEND)) == 1

    def test_filter_by_actor(self):
        t = self._make()
        assert len(t.events(actor="a")) == 2

    def test_first_and_last(self):
        t = self._make()
        assert t.first(actor="a").kind is TraceKind.SEND
        assert t.last(actor="a").kind is TraceKind.TERMINATE

    def test_first_returns_none_when_missing(self):
        t = self._make()
        assert t.first(kind=TraceKind.FAULT) is None

    def test_predicate_filter(self):
        t = self._make()
        hits = t.events(predicate=lambda e: e.get("to") == "b")
        assert len(hits) == 1

    def test_termination_time(self):
        t = self._make()
        assert t.termination_time("a") == 3.0
        assert t.termination_time("b") is None

    def test_span(self):
        t = self._make()
        assert t.span() == (1.0, 3.0)
        assert TraceRecorder().span() == (0.0, 0.0)

    def test_actors(self):
        assert self._make().actors() == ["a", "b"]

    def test_to_dicts_roundtrip_fields(self):
        rows = self._make().to_dicts()
        assert rows[0]["kind"] == "send"
        assert rows[0]["to"] == "b"

    def test_data_keys_may_shadow_positional_names(self):
        t = TraceRecorder()
        e = t.record(0.0, TraceKind.NOTE, "x", kind="payload-kind")
        assert e.kind is TraceKind.NOTE
        assert e.get("kind") == "payload-kind"
