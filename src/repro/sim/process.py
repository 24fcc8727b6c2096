"""Process abstraction: named simulation actors with timers.

A :class:`Process` is anything that lives inside a simulation under a
stable name: an escrow, a customer, a transaction manager, a notary.
It offers

* ``handle_message(msg)`` — the network delivers here;
* ``set_timer`` / ``cancel_timer`` — named timers in *global* time
  (clock-local timers are layered on top by :mod:`repro.anta`);
* a ``terminated`` flag plus trace integration, and the session's
  completion :class:`Latch`, which counts gating processes as they
  terminate;
* a crash–recovery lifecycle (``crash()`` / ``recover()`` with
  ``checkpoint()`` / ``restore()`` hooks) driven by an attached
  :class:`~repro.sim.faults.FaultInjector`.  A process without an
  injector pays one attribute read per declared crash point and
  nothing else;
* the write-ahead decision path every durable participant shares:
  :meth:`Process.send_decision` logs a decision before its messages
  leave, and :meth:`Process.replay` reads the log back on restore.

Processes deliberately do not subclass anything from :mod:`threading` —
the simulation is sequential and deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from .decision_log import CHECKPOINT, DECISION, SENT, DecisionLog
from .events import Event, EventPriority
from .kernel import Simulator
from .trace import TraceKind

#: Default timer priority as a plain ``int`` so the kernel's scheduling
#: fast path never pays an ``int(enum)`` conversion for ordinary timers.
_TIMER = int(EventPriority.TIMER)
_TERMINATE = TraceKind.TERMINATE
_NOTE = TraceKind.NOTE
_FAULT = TraceKind.FAULT


class Process:
    """Base class for simulation actors.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Unique, stable identifier used for routing and traces.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.terminated = False
        # Crash–recovery lifecycle; all four stay at their defaults
        # unless a FaultInjector targets this process.
        self.crashed = False
        self.recovering = False
        self.fault_injector: Optional[Any] = None
        self.decision_log: Optional[DecisionLog] = None
        self._timers: Dict[str, Event] = {}
        # Timer labels are pure debug strings; building
        # f"{name}.timer.{id}" on every (re)arm shows up in campaign
        # profiles, so each distinct timer id pays for its label once.
        self._timer_labels: Dict[str, str] = {}

    # -- messaging (filled in by the network layer) ---------------------

    def handle_message(self, message: Any) -> None:
        """Receive a delivered message.  Subclasses override."""

    # -- timers ----------------------------------------------------------

    def _timer_label(self, timer_id: str) -> str:
        label = self._timer_labels.get(timer_id)
        if label is None:
            label = self._timer_labels[timer_id] = f"{self.name}.timer.{timer_id}"
        return label

    def set_timer(
        self,
        timer_id: str,
        delay: float,
        *,
        priority: int = _TIMER,
    ) -> Event:
        """(Re)arm a named timer ``delay`` global-time units from now.

        Re-arming an existing timer cancels the previous instance, so a
        timer id always refers to at most one pending expiration.
        """
        # Inlined cancel_timer: every (re)arm pays this, and most arms
        # (fresh timers, post-fire re-arms) find nothing to cancel.
        prev = self._timers.pop(timer_id, None)
        if prev is not None and not prev.cancelled and not prev.fired:
            self.sim.cancel(prev)
        event = self.sim.schedule(
            delay,
            self._fire_timer,
            timer_id,
            priority=priority,
            label=self._timer_label(timer_id),
        )
        self._timers[timer_id] = event
        return event

    def set_timer_at(
        self,
        timer_id: str,
        time: float,
        *,
        priority: int = _TIMER,
    ) -> Event:
        """(Re)arm a named timer at absolute global ``time``.

        A timer models the condition ``now >= time``; arming it after
        ``time`` has already passed means the condition is already true,
        so the timer fires immediately (at the current instant).
        """
        prev = self._timers.pop(timer_id, None)
        if prev is not None and not prev.cancelled and not prev.fired:
            self.sim.cancel(prev)
        event = self.sim.schedule_at(
            max(time, self.sim.now),
            self._fire_timer,
            timer_id,
            priority=priority,
            label=self._timer_label(timer_id),
        )
        self._timers[timer_id] = event
        return event

    def cancel_timer(self, timer_id: str) -> bool:
        """Cancel a named timer; ``True`` if one was pending."""
        event = self._timers.pop(timer_id, None)
        if event is not None and event.alive:
            self.sim.cancel(event)
            return True
        return False

    def cancel_all_timers(self) -> None:
        """Cancel every pending timer owned by this process."""
        for timer_id in list(self._timers):
            self.cancel_timer(timer_id)

    def _fire_timer(self, timer_id: str) -> None:
        self._timers.pop(timer_id, None)
        if not self.terminated and not self.crashed:
            self.on_timer(timer_id)

    def on_timer(self, timer_id: str) -> None:
        """Timer expiration hook.  Subclasses override."""

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Initial action hook, called once when the session starts."""

    def terminate(self, reason: str = "") -> None:
        """Mark the process terminated and cancel its timers.

        Termination is recorded in the trace and counted on the
        simulator's completion :class:`Latch`, if one is set; repeated
        calls are ignored so protocol code can call it defensively.
        """
        if self.terminated:
            return
        self.terminated = True
        self.cancel_all_timers()
        sim = self.sim
        sim.trace.record(sim.now, _TERMINATE, self.name, reason=reason)
        latch = sim.latch
        if latch is not None:
            latch.count(self)

    # -- crash / recovery --------------------------------------------------

    def enable_durability(self) -> None:
        """Give the process stable storage (a write-ahead DecisionLog).

        Protocol code checkpoints and logs *only* when a log is present,
        so durability — and its cost — is opt-in per process; the
        fault injector enables it on its victim at attach time.
        """
        if self.decision_log is None:
            self.decision_log = DecisionLog(owner=self.name)

    def reach_crash_point(self, point: str) -> bool:
        """Report reaching a named crash point to the injector, if any.

        Returns whether the process is down afterwards, so a site stops
        with one ``if``.
        """
        injector = self.fault_injector
        if injector is not None:
            injector.reach(self, point)
        return self.crashed

    def crash(self) -> None:
        """Fail-stop: lose volatile state, keep the decision log's
        durable prefix.  The process stays registered (it will return)
        but handles no messages and fires no timers while down; the
        network drops traffic addressed to it.  ``terminated`` is NOT
        set, so a down process still holds its session's completion
        :class:`Latch`; it counts there once, when it terminates after
        :meth:`recover`.
        """
        if self.terminated or self.crashed:
            return
        self.crashed = True
        self.cancel_all_timers()
        if self.decision_log is not None:
            self.decision_log.crash()
        self.sim.trace.record(self.sim.now, _FAULT, self.name, fault="crash")

    def recover(self) -> None:
        """Return from a crash: replay the log, then rejoin the protocol.

        The replay runs in an explicit RECOVERING phase (``recovering``
        is ``True`` inside :meth:`restore` and the trace carries the
        phase markers), mirroring the 2PC recovery state-machine split.
        """
        if self.terminated or not self.crashed:
            return
        self.crashed = False
        self.recovering = True
        self.sim.trace.record(
            self.sim.now, _FAULT, self.name, fault="recovering"
        )
        try:
            self.restore()
        finally:
            self.recovering = False
        if not self.terminated:
            self.sim.trace.record(
                self.sim.now, _FAULT, self.name, fault="recovered"
            )

    def checkpoint(self, **state: Any) -> None:
        """Fsync a checkpoint of ``state``, if storage exists."""
        log = self.decision_log
        if log is not None:
            log.append(CHECKPOINT, **state)
            log.sync()

    def send_decision(
        self, sends: Sequence[Tuple[str, Any, Any]], **record: Any
    ) -> bool:
        """Transmit a decision's ``(to, kind, payload)`` sends, write-ahead.

        With a log: fsync a ``decision`` record carrying ``sends`` and
        the caller's ``record`` fields, reach ``post-sign-pre-send``,
        transmit, fsync a ``sent`` marker, reach ``post-send``.  Without
        one it only transmits.  Returns whether the process is still up;
        the caller's ``pre-decision`` point comes before its own effects.
        """
        log = self.decision_log
        if log is not None:
            log.append(DECISION, sends=sends, **record)
            log.sync()
            if self.reach_crash_point("post-sign-pre-send"):
                return False
        send = self.network.send
        for to, kind, payload in sends:
            send(self, to, kind, payload)
        if log is None:
            return True
        log.append(SENT)
        log.sync()
        return not self.reach_crash_point("post-send")

    def replay(self) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
        """Read the durable log back: ``(checkpoint, decision)``.

        ``checkpoint`` is the newest durable checkpoint and ``decision``
        the first decision logged after it (either may be ``None``).  A
        decision whose ``sent`` marker did not survive is retransmitted
        here, so the caller only completes its local transition.
        """
        log = self.decision_log
        _, checkpoint = log.last_checkpoint()
        tail = log.since_checkpoint()
        decision = next((r for r in tail if r["kind"] == DECISION), None)
        if decision is not None and not any(r["kind"] == SENT for r in tail):
            send = self.network.send
            for to, kind, payload in decision["sends"]:
                send(self, to, kind, payload)
        return checkpoint, decision

    def restore(self) -> None:
        """Replay the decision log and rejoin.  Subclasses override.

        Called by :meth:`recover` with ``recovering`` set; overrides
        start from :meth:`replay`.  The base implementation does nothing
        (a stateless process needs no replay).
        """

    def note(self, text: str, **data: Any) -> None:
        """Record a free-form annotation in the trace."""
        self.sim.trace.record(self.sim.now, _NOTE, self.name, text=text, **data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "terminated" if self.terminated else "active"
        return f"{type(self).__name__}({self.name!r}, {status})"


class Latch:
    """A session's completion latch: its gating processes still running.

    A session completes when its gating processes have all terminated:
    a payment's participants, or a deal's parties and arc escrows
    (chains, TMs and observers never gate).  The latch holds the ones
    not yet terminated and sits in the ``latch`` slot of the session's
    :class:`~repro.sim.kernel.Simulator` or
    :class:`~repro.sim.view.SessionView`, where :meth:`Process.terminate`
    counts each of them once.  ``on_zero`` is called once: by the
    termination that empties the latch, or by the constructor if none
    is left to wait for.  A process outside the set never counts.
    """

    __slots__ = ("pending", "on_zero")

    def __init__(
        self, processes: Iterable[Process], on_zero: Callable[[], Any]
    ) -> None:
        self.pending = {p for p in processes if not p.terminated}
        self.on_zero = on_zero
        if not self.pending:
            on_zero()

    def count(self, process: Process) -> None:
        """Count a terminated process (called by :meth:`Process.terminate`)."""
        pending = self.pending
        if process in pending:
            pending.remove(process)
            if not pending:
                self.on_zero()


def run_to_completion(
    sim: Simulator, processes: Iterable[Process], until: float
) -> None:
    """Run a solo simulator until ``processes`` have all terminated.

    The completion latch stops the run after the event in which the
    last of them terminates; ``until`` is the horizon.  Completion is
    judged after an event, never before the first: when none of them
    is left to wait for, the run still executes one event, or reaches
    ``until`` if no event is due by then.
    """
    latch = sim.latch = Latch(processes, sim.stop)
    sim.run(until=until, max_events=None if latch.pending else 1)


__all__ = ["Latch", "Process", "run_to_completion"]
