"""Execution engine for ANTA timed automata.

A :class:`TimedAutomaton` runs an :class:`~repro.anta.transitions.AutomatonSpec`
on the simulation kernel:

* its ``now`` property reads the automaton's **local drifting clock**;
* input states arm timeout timers by converting local deadlines to
  global instants through the clock;
* messages that arrive while no matching transition is enabled are
  **buffered** and re-examined whenever the automaton enters an input
  state — the standard asynchronous-network semantics (a send is never
  lost just because the receiver was busy computing);
* output states take a bounded *processing delay* before emitting, as
  in the formalism ("an automaton spends a bounded amount of time
  calculating in each grey state").

Determinism: transition specs are evaluated in declaration order, and
the buffer is FIFO, so runs are reproducible.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..clocks import DriftingClock, PERFECT_CLOCK
from ..errors import AutomatonError
from ..net.message import Envelope, MsgKind
from ..net.network import Network
from ..sim.events import EventPriority
from ..sim.kernel import Simulator
from ..sim.process import Process
from ..sim.trace import TraceKind
from .transitions import (
    AutomatonSpec,
    ReceiveSpec,
    StateKind,
    StateSpec,
    resolve_name,
)


class TimedAutomaton(Process):
    """One participant of an ANTA network.

    Parameters
    ----------
    sim, name:
        Process identity.
    spec:
        The automaton's structure.
    network:
        Where sends go.
    clock:
        Local drifting clock (defaults to a perfect clock).
    processing_bound:
        Real-time upper bound ε on grey-state computation; actual delays
        are sampled uniformly from ``[processing_floor, processing_bound]``.
    config:
        Free-form per-instance parameters (timeout windows, amounts,
        neighbour names) available to spec callbacks as ``self.config``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        spec: AutomatonSpec,
        network: Network,
        clock: DriftingClock = PERFECT_CLOCK,
        processing_bound: float = 0.0,
        processing_floor: float = 0.0,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(sim, name)
        spec.validate()
        if processing_bound < 0 or processing_floor < 0:
            raise AutomatonError("processing delays must be >= 0")
        if processing_floor > processing_bound:
            raise AutomatonError("processing_floor must be <= processing_bound")
        self.spec = spec
        self.network = network
        self.clock = clock
        self.processing_bound = float(processing_bound)
        self.processing_floor = float(processing_floor)
        self.config: Dict[str, Any] = dict(config or {})
        self.vars: Dict[str, Any] = {}
        self.state: Optional[str] = None
        self._buffer: List[Envelope] = []
        self._rng = sim.rng.stream(f"automaton.{name}")
        #: Observers notified on every state entry (used by tests/explorer).
        self.on_state_change: List[Callable[[str], None]] = []

    # -- local time -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current reading of this automaton's *local* clock."""
        return self.clock.local_time(self.sim.now)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Enter the initial state."""
        self._enter(self.spec.initial)

    def current_state(self) -> StateSpec:
        if self.state is None:
            raise AutomatonError(f"{self.name}: automaton not started")
        return self.spec.states[self.state]

    # -- state machine ---------------------------------------------------------

    def _enter(self, state_name: str) -> None:
        if self.terminated:
            return
        if state_name not in self.spec.states:
            raise AutomatonError(f"{self.name}: unknown state {state_name!r}")
        self.state = state_name
        state = self.spec.states[state_name]
        self.sim.trace.record(
            self.sim.now,
            TraceKind.STATE,
            self.name,
            state=state_name,
            state_kind=state.kind.value,
            local_time=self.now,
        )
        if state.on_enter is not None:
            state.on_enter(self)
        for observer in self.on_state_change:
            observer(state_name)
        if state.kind is StateKind.FINAL:
            self.terminate(reason=f"final state {state_name}")
            return
        if state.kind is StateKind.OUTPUT:
            delay = self._sample_processing_delay()
            self.sim.schedule(
                delay,
                self._run_output,
                state_name,
                priority=EventPriority.INTERNAL,
                label=f"{self.name}.compute.{state_name}",
            )
            return
        # INPUT state: a durable automaton checkpoints at every input
        # state — the quiescent points of the run — before waiting.  The
        # variables carry the timer base points (``u``, lock ids, …), so
        # re-entering the checkpointed state after recovery re-derives
        # every timeout deadline from durable data alone.
        if self.decision_log is not None:
            self.checkpoint(state=self.state, vars=dict(self.vars))
        # Drain buffered messages first, then arm timeouts.
        if self._try_consume_buffered():
            return
        self._arm_timeouts(state)

    def _sample_processing_delay(self) -> float:
        if self.processing_bound <= self.processing_floor:
            return self.processing_floor
        return self._rng.uniform(self.processing_floor, self.processing_bound)

    def _run_output(self, state_name: str) -> None:
        if self.terminated or self.state != state_name:
            return
        state = self.spec.states[state_name]
        assert state.emit is not None  # guaranteed by StateSpec validation
        if not state.decision:
            sends, next_state = state.emit(self)
            for send in sends:
                self.send(send.to, send.kind, send.payload)
            self._enter(next_state)
            return
        # Decision-grade output: logged before its sends leave.
        if self.reach_crash_point("pre-decision"):
            return
        sends, next_state = state.emit(self)
        resolved = [
            (resolve_name(send.to, self), send.kind, send.payload)
            for send in sends
        ]
        if self.send_decision(resolved, state=state_name, next_state=next_state):
            self._enter(next_state)

    # -- sending ---------------------------------------------------------------

    def send(self, to: Any, kind: MsgKind, payload: Any = None) -> Envelope:
        """Send a message to a (symbolically named) participant."""
        return self.network.send(self, resolve_name(to, self), kind, payload)

    # -- receiving ---------------------------------------------------------------

    def handle_message(self, envelope: Envelope) -> None:
        if self.terminated:
            return
        state = self.current_state()
        if state.kind is StateKind.INPUT:
            transition = self._find_receive(state, envelope)
            if transition is not None:
                self._fire_receive(transition, envelope)
                return
        self._buffer.append(envelope)

    def _find_receive(
        self, state: StateSpec, envelope: Envelope
    ) -> Optional[ReceiveSpec]:
        for transition in state.receives:
            if transition.matches(self, envelope):
                return transition
        return None

    def _try_consume_buffered(self) -> bool:
        """Consume the first buffered message enabling a transition."""
        state = self.current_state()
        for index, envelope in enumerate(self._buffer):
            transition = self._find_receive(state, envelope)
            if transition is not None:
                del self._buffer[index]
                self._fire_receive(transition, envelope)
                return True
        return False

    def _fire_receive(self, transition: ReceiveSpec, envelope: Envelope) -> None:
        self._disarm_timeouts()
        if transition.action is not None:
            transition.action(self, envelope)
        self._enter(resolve_name(transition.target, self))

    # -- timeouts -----------------------------------------------------------------

    def _timeout_timer_id(self, index: int) -> str:
        return f"state-timeout-{index}"

    def _arm_timeouts(self, state: StateSpec) -> None:
        for index, timeout in enumerate(state.timeouts):
            local_deadline = timeout.deadline(self)
            global_deadline = self.clock.global_time(local_deadline)
            # A deadline already in the past is enabled immediately; fire
            # at the current instant (still via the event queue so the
            # TIMER priority ordering vs. same-time deliveries holds).
            fire_at = max(global_deadline, self.sim.now)
            self.set_timer_at(self._timeout_timer_id(index), fire_at)

    def _disarm_timeouts(self) -> None:
        state = self.current_state()
        for index in range(len(state.timeouts)):
            self.cancel_timer(self._timeout_timer_id(index))

    def on_timer(self, timer_id: str) -> None:
        if not timer_id.startswith("state-timeout-"):
            return
        state = self.current_state()
        index = int(timer_id.rsplit("-", 1)[1])
        if index >= len(state.timeouts):  # stale timer from a previous state
            return
        timeout = state.timeouts[index]
        # Re-check the clock condition defensively (guards against clock
        # rounding at conversion boundaries).
        if self.now < timeout.deadline(self) - 1e-12:
            # Not actually due yet; re-arm at the corrected instant.
            self.set_timer_at(
                timer_id, self.clock.global_time(timeout.deadline(self))
            )
            return
        self._disarm_timeouts()
        self.sim.trace.record(
            self.sim.now,
            TraceKind.TIMEOUT,
            self.name,
            state=self.state,
            label=timeout.label,
            local_time=self.now,
        )
        if timeout.action is not None:
            timeout.action(self)
        self._enter(resolve_name(timeout.target, self))

    # -- crash / recovery --------------------------------------------------

    def restore(self) -> None:
        """Replay the decision log, then rejoin the automaton's run.

        Volatile state (message buffer, in-memory variables) is wiped
        and rebuilt from the durable records: the newest checkpoint
        restores ``state``/``vars``; a decision logged after it is an
        irrevocable commitment (:meth:`~repro.sim.process.Process.replay`
        retransmits it unless its ``sent`` marker survived) and the
        automaton resumes in the decision's successor state.  With no
        checkpoint at all the automaton restarts from its initial state.
        """
        self._buffer.clear()
        self.cancel_all_timers()
        checkpoint, decision = self.replay()
        self.vars = dict(checkpoint["vars"]) if checkpoint is not None else {}
        if decision is not None:
            self._enter(decision["next_state"])
        elif checkpoint is not None:
            self._enter(checkpoint["state"])
        else:
            self._enter(self.spec.initial)

    # -- introspection -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimedAutomaton({self.name!r}, state={self.state!r})"


__all__ = ["TimedAutomaton"]
