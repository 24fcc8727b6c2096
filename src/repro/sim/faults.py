"""Fault injection: crash a victim at a named point, restore it later.

The crash model is **fail-stop-and-return**: a crashed process loses
its volatile state (pending timers, buffered messages; traffic
delivered during downtime is dropped by the network), keeps its stable
storage (:class:`~repro.sim.decision_log.DecisionLog`), and after a
downtime ``d`` re-enters the protocol through its ``restore()``
lifecycle — replaying the log in an explicit RECOVERING phase before
rejoining.  This is exactly the participant model the 2PC recovery
state machine is written for, applied to the paper's escrows.

Crash *points* name where in a decision the victim dies, the three
places where write-ahead logging changes what survives:

* ``pre-decision`` — the decision input arrived but nothing was
  computed, signed, or logged; the input is lost with the volatile
  state and must be re-obtained after restart.
* ``post-sign-pre-send`` — the decision was computed, its ledger
  effects applied and the decision record fsynced, but its messages
  never left; replay must retransmit them.
* ``post-send`` — messages left and the ``sent`` confirmation is
  durable; replay only completes the local transition.

A :class:`FaultInjector` carries one such plan for one victim and is
attached to the victim by :meth:`~repro.core.session.PaymentSession.launch`;
protocol code reports ``pre-decision`` itself and
:meth:`~repro.sim.process.Process.send_decision` reports the other two,
all via :meth:`~repro.sim.process.Process.reach_crash_point`, which is
one attribute read for every process without an injector — the
recovery machinery costs nothing when no crash is scheduled.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..errors import RecoveryError

#: The named crash points, in decision order.  Docs (README/PAPER_MAP)
#: must mention each name — tools/check_docs.py walks this tuple.
CRASH_POINTS = ("pre-decision", "post-sign-pre-send", "post-send")

#: What each crash point means (single source for docs and --list-axes).
CRASH_POINT_DOCS = {
    "pre-decision": (
        "crash before the decision is computed or logged; its trigger "
        "message is lost with the volatile state"
    ),
    "post-sign-pre-send": (
        "crash after the decision is signed, applied, and fsynced but "
        "before its messages leave; replay retransmits them"
    ),
    "post-send": (
        "crash after the decision's messages left and the sent-marker "
        "is durable; replay only completes the local transition"
    ),
}


class FaultInjector:
    """One crash–restart plan: victim × crash point × downtime.

    The injector is single-shot — the victim crashes the first time it
    reaches the named point and is restored ``downtime`` global-time
    units later (restoration is skipped if the victim terminated in
    the meantime, e.g. a zero-downtime race).  ``crashed_at`` /
    ``recovered_at`` expose what actually happened for the campaign
    record columns.
    """

    def __init__(self, victim: str, point: str, downtime: float) -> None:
        if point not in CRASH_POINTS:
            raise RecoveryError(
                f"unknown crash point {point!r}; declared points: "
                f"{', '.join(CRASH_POINTS)}"
            )
        if not (float(downtime) >= 0.0):
            raise RecoveryError(f"downtime must be >= 0, got {downtime!r}")
        self.victim = victim
        self.point = point
        self.downtime = float(downtime)
        self.crashed_at: Optional[float] = None
        self.recovered_at: Optional[float] = None

    def attach(self, processes: Iterable[Any]) -> None:
        """Wire this plan onto the victim (and give it stable storage)."""
        victim = None
        for process in processes:
            if process.name == self.victim:
                victim = process
                break
        if victim is None:
            raise RecoveryError(
                f"crash victim {self.victim!r} is not a participant of "
                "this session"
            )
        victim.fault_injector = self
        victim.enable_durability()

    def reach(self, process: Any, point: str) -> None:
        """Called by the victim as it reaches a named point."""
        if self.crashed_at is not None or point != self.point:
            return
        sim = process.sim
        self.crashed_at = sim.now
        process.crash()
        sim.schedule(
            self.downtime,
            self._restore,
            process,
            label=f"{process.name}.restore",
        )

    def _restore(self, process: Any) -> None:
        if process.terminated:  # pragma: no cover - defensive
            return
        self.recovered_at = process.sim.now
        process.recover()

    def describe(self) -> str:
        return (
            f"crash-restart({self.victim} @ {self.point}, d={self.downtime:g})"
        )


__all__ = ["CRASH_POINTS", "CRASH_POINT_DOCS", "FaultInjector"]
