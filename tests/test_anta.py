"""Unit tests: the ANTA timed-automata framework."""

import pytest

from repro.anta.automaton import TimedAutomaton
from repro.anta.render import render_spec, render_specs
from repro.anta.transitions import (
    AutomatonSpec,
    ReceiveSpec,
    SendSpec,
    StateKind,
    StateSpec,
    TimeoutSpec,
)
from repro.clocks import DriftingClock
from repro.errors import AutomatonError
from repro.net.message import MsgKind
from repro.net.network import Network
from repro.net.timing import Synchronous
from repro.sim.kernel import Simulator
from repro.sim.process import Process


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def _world(delta=1.0, jitter=0.0, min_delay=0.0):
    sim = Simulator(seed=0)
    net = Network(sim, Synchronous(delta, jitter=jitter, min_delay=min_delay))
    return sim, net


def _echo_spec():
    """wait for MONEY from 'peer', then emit a CERTIFICATE back, done."""
    spec = AutomatonSpec(name="echo", initial="waiting")
    spec.add(StateSpec(
        name="waiting", kind=StateKind.INPUT,
        receives=[ReceiveSpec(frm="peer", kind=MsgKind.MONEY, target="reply")],
    ))
    spec.add(StateSpec(
        name="reply", kind=StateKind.OUTPUT,
        emit=lambda a: ([SendSpec("peer", MsgKind.CERTIFICATE, "ok")], "done"),
    ))
    spec.add(StateSpec(name="done", kind=StateKind.FINAL))
    return spec


class TestSpecValidation:
    def test_output_state_needs_emit(self):
        with pytest.raises(AutomatonError):
            StateSpec(name="s", kind=StateKind.OUTPUT)

    def test_input_state_cannot_emit(self):
        with pytest.raises(AutomatonError):
            StateSpec(name="s", kind=StateKind.INPUT, emit=lambda a: ([], "x"))

    def test_final_state_cannot_own_transitions(self):
        with pytest.raises(AutomatonError):
            StateSpec(
                name="s", kind=StateKind.FINAL,
                receives=[ReceiveSpec(frm="x", kind=MsgKind.MONEY, target="s")],
            )

    def test_duplicate_state_rejected(self):
        spec = AutomatonSpec(name="a", initial="s")
        spec.add(StateSpec(name="s", kind=StateKind.FINAL))
        with pytest.raises(AutomatonError):
            spec.add(StateSpec(name="s", kind=StateKind.FINAL))

    def test_unknown_initial_rejected(self):
        spec = AutomatonSpec(name="a", initial="nope")
        spec.add(StateSpec(name="s", kind=StateKind.FINAL))
        with pytest.raises(AutomatonError):
            spec.validate()

    def test_unknown_target_rejected(self):
        spec = AutomatonSpec(name="a", initial="s")
        spec.add(StateSpec(
            name="s", kind=StateKind.INPUT,
            receives=[ReceiveSpec(frm="x", kind=MsgKind.MONEY, target="ghost")],
        ))
        with pytest.raises(AutomatonError):
            spec.validate()


class TestExecution:
    def test_receive_transition_fires(self):
        sim, net = _world()
        peer = Sink(sim, "peer")
        net.register(peer)
        auto = TimedAutomaton(sim, "echo", _echo_spec(), net)
        net.register(auto)
        auto.start()
        net.send(peer, "echo", MsgKind.MONEY, None)
        sim.run()
        assert auto.terminated
        assert auto.state == "done"
        assert len(peer.received) == 1
        assert peer.received[0].kind is MsgKind.CERTIFICATE

    def test_non_matching_message_buffered_until_enabled(self):
        sim, net = _world()
        peer = Sink(sim, "peer")
        net.register(peer)
        # Two-stage: first CERTIFICATE, then MONEY — send MONEY first.
        spec = AutomatonSpec(name="a", initial="s1")
        spec.add(StateSpec(
            name="s1", kind=StateKind.INPUT,
            receives=[ReceiveSpec(frm="peer", kind=MsgKind.CERTIFICATE, target="s2")],
        ))
        spec.add(StateSpec(
            name="s2", kind=StateKind.INPUT,
            receives=[ReceiveSpec(frm="peer", kind=MsgKind.MONEY, target="done")],
        ))
        spec.add(StateSpec(name="done", kind=StateKind.FINAL))
        auto = TimedAutomaton(sim, "a", spec, net)
        net.register(auto)
        auto.start()
        net.send(peer, "a", MsgKind.MONEY, None)  # early: must be buffered
        sim.run()
        assert auto.state == "s1"
        assert len(auto._buffer) == 1
        net.send(peer, "a", MsgKind.CERTIFICATE, None)
        sim.run()
        assert auto.terminated  # buffer drained after entering s2

    def test_guard_blocks_transition(self):
        sim, net = _world()
        peer = Sink(sim, "peer")
        net.register(peer)
        spec = AutomatonSpec(name="a", initial="s")
        spec.add(StateSpec(
            name="s", kind=StateKind.INPUT,
            receives=[ReceiveSpec(
                frm="peer", kind=MsgKind.MONEY, target="done",
                guard=lambda a, env: env.payload == "magic",
            )],
        ))
        spec.add(StateSpec(name="done", kind=StateKind.FINAL))
        auto = TimedAutomaton(sim, "a", spec, net)
        net.register(auto)
        auto.start()
        net.send(peer, "a", MsgKind.MONEY, "wrong")
        sim.run()
        assert not auto.terminated
        net.send(peer, "a", MsgKind.MONEY, "magic")
        sim.run()
        assert auto.terminated

    def test_timeout_fires_at_local_deadline(self):
        sim, net = _world()
        spec = AutomatonSpec(name="a", initial="s")
        spec.add(StateSpec(
            name="s", kind=StateKind.INPUT,
            timeouts=[TimeoutSpec(deadline=lambda a: 10.0, target="done")],
        ))
        spec.add(StateSpec(name="done", kind=StateKind.FINAL))
        # Clock runs at 2x: local 10 is global 5.
        auto = TimedAutomaton(sim, "a", spec, net, clock=DriftingClock(rate=2.0))
        net.register(auto)
        auto.start()
        sim.run()
        assert auto.terminated
        assert sim.now == pytest.approx(5.0)

    def test_receive_beats_timeout_at_same_instant(self):
        # Deliveries pinned to exactly t = 1.0, the timer's instant.
        sim, net = _world(min_delay=1.0)
        peer = Sink(sim, "peer")
        net.register(peer)
        spec = AutomatonSpec(name="a", initial="s")
        spec.add(StateSpec(
            name="s", kind=StateKind.INPUT,
            receives=[ReceiveSpec(frm="peer", kind=MsgKind.MONEY, target="got")],
            timeouts=[TimeoutSpec(deadline=lambda a: 1.0, target="expired")],
        ))
        spec.add(StateSpec(name="got", kind=StateKind.FINAL))
        spec.add(StateSpec(name="expired", kind=StateKind.FINAL))
        auto = TimedAutomaton(sim, "a", spec, net)
        net.register(auto)
        auto.start()
        # Delivered exactly at t=1.0 (delta=1, jitter=0 -> exact).
        net.send(peer, "a", MsgKind.MONEY, None)
        sim.run()
        assert auto.state == "got"  # DELIVERY priority precedes TIMER

    def test_output_processing_delay_bounds(self):
        sim, net = _world()
        peer = Sink(sim, "peer")
        net.register(peer)
        spec = AutomatonSpec(name="a", initial="emit")
        spec.add(StateSpec(
            name="emit", kind=StateKind.OUTPUT,
            emit=lambda a: ([SendSpec("peer", MsgKind.MONEY, None)], "done"),
        ))
        spec.add(StateSpec(name="done", kind=StateKind.FINAL))
        auto = TimedAutomaton(
            sim, "a", spec, net, processing_bound=0.5, processing_floor=0.2
        )
        net.register(auto)
        auto.start()
        sim.run()
        send = sim.trace.first(actor="a", predicate=lambda e: e.get("to") == "peer")
        assert 0.2 <= send.time <= 0.5

    def test_clock_assignment_in_action(self):
        # Delivery pinned to exactly t = 1.0 so the expected local
        # reading is skew + rate * 1.0.
        sim, net = _world(min_delay=1.0)
        peer = Sink(sim, "peer")
        net.register(peer)
        spec = AutomatonSpec(name="a", initial="s")
        def remember_now(a, env):
            a.vars["u"] = a.now  # the paper's `u := now`
        spec.add(StateSpec(
            name="s", kind=StateKind.INPUT,
            receives=[ReceiveSpec(
                frm="peer", kind=MsgKind.MONEY, target="done", action=remember_now
            )],
        ))
        spec.add(StateSpec(name="done", kind=StateKind.FINAL))
        auto = TimedAutomaton(sim, "a", spec, net, clock=DriftingClock(rate=2.0, skew=1.0))
        net.register(auto)
        auto.start()
        net.send(peer, "a", MsgKind.MONEY, None)
        sim.run()
        assert auto.vars["u"] == pytest.approx(1.0 + 2.0 * 1.0)

    def test_terminated_automaton_ignores_messages(self):
        sim, net = _world()
        peer = Sink(sim, "peer")
        net.register(peer)
        auto = TimedAutomaton(sim, "echo", _echo_spec(), net)
        net.register(auto)
        auto.start()
        net.send(peer, "echo", MsgKind.MONEY, None)
        sim.run()
        assert auto.terminated
        net.send(peer, "echo", MsgKind.MONEY, None)
        sim.run()
        assert len(peer.received) == 1  # no second reply

    def test_state_change_observers(self):
        sim, net = _world()
        peer = Sink(sim, "peer")
        net.register(peer)
        auto = TimedAutomaton(sim, "echo", _echo_spec(), net)
        seen = []
        auto.on_state_change.append(seen.append)
        net.register(auto)
        auto.start()
        net.send(peer, "echo", MsgKind.MONEY, None)
        sim.run()
        assert seen == ["waiting", "reply", "done"]


class TestAssemblyAndRender:
    def test_render_mentions_states_and_transitions(self):
        text = render_spec(_echo_spec())
        assert "waiting" in text and "reply" in text and "done" in text
        assert "input (white)" in text and "output (grey)" in text

    def test_render_figure2_protocol_specs(self):
        from repro.protocols.timebounded import (
            alice_spec, bob_spec, chloe_spec, escrow_spec,
        )
        text = render_specs(
            [
                escrow_spec("e0", "c0", "c1"),
                alice_spec("c0", "e0"),
                chloe_spec("c1", "e0", "e1"),
                bob_spec("c2", "e1"),
            ],
            title="Figure 2",
        )
        assert "now >= u + a_i" in text
        assert "r(e0, G(d0))" in text
