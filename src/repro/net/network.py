"""The message-passing network.

:class:`Network` connects registered :class:`~repro.sim.process.Process`
instances through a :class:`~repro.net.timing.TimingModel`, optionally
filtered by an :class:`~repro.net.adversary.Adversary`.  Sends are
authenticated (sender attribution is done by the network) and reliable
(no losses — the classic model), with one exception: a message
delivered to a *crashed* process (see :mod:`repro.sim.faults`) is
dropped, exactly as a fail-stopped machine loses its in-flight input.

Every send and delivery is recorded in the simulation trace, which is
what property checkers and experiment tables read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import NetworkError
from ..sim.events import EventPriority
from ..sim.kernel import Simulator
from ..sim.process import Process
from ..sim.trace import TraceKind
from .adversary import Adversary, NullAdversary
from .message import Envelope, MsgKind
from .timing import TimingModel

# Hoisted constants for the per-message hot path: enum member access
# goes through a descriptor, and the kernel converts non-``int``
# priorities on every call.
_SEND = TraceKind.SEND
_RECEIVE = TraceKind.RECEIVE
_DELIVERY = int(EventPriority.DELIVERY)


@dataclass
class NetworkStats:
    """Aggregate traffic counters (used by the scalability experiment)."""

    sent: int = 0
    delivered: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    total_latency: float = 0.0

    def mean_latency(self) -> float:
        """Average delivery latency over delivered messages."""
        return self.total_latency / self.delivered if self.delivered else 0.0


class Network:
    """Routes envelopes between named processes with model-driven delays.

    Parameters
    ----------
    sim:
        The simulator supplying time, scheduling, and traces.
    timing:
        Delivery-time policy (synchrony / partial synchrony / ...).
    adversary:
        Scheduling adversary; defaults to the non-interfering one.
    """

    def __init__(
        self,
        sim: Simulator,
        timing: TimingModel,
        adversary: Optional[Adversary] = None,
    ) -> None:
        self.sim = sim
        self.timing = timing
        self.adversary = adversary if adversary is not None else NullAdversary()
        self.stats = NetworkStats()
        self._processes: Dict[str, Process] = {}
        self._rng = sim.rng.stream("network.delays")
        # Non-interfering adversaries (anything that inherits the base
        # ``propose_delay``) always answer ``None``; skipping the call
        # sheds a Python frame per send on the honest-network hot path.
        adv = self.adversary
        self._propose = (
            adv.propose_delay
            if type(adv).propose_delay is not Adversary.propose_delay
            else None
        )

    # -- arena lifecycle ---------------------------------------------------

    def reset(
        self,
        timing: Optional[TimingModel] = None,
        adversary: Optional[Adversary] = None,
    ) -> None:
        """Return the network to a freshly constructed state.

        The arena lifecycle: one network serves many trials.  Traffic
        counters, the process table, and the adversary fast path are
        rebuilt exactly as ``__init__`` would build them; ``timing``
        (when given) replaces the model.  Call this *after* resetting
        the owning simulator/view — the delay stream must come off the
        new RNG registry.
        """
        if timing is not None:
            self.timing = timing
        adv = adversary if adversary is not None else NullAdversary()
        self.adversary = adv
        self.stats = NetworkStats()
        self._processes.clear()
        self._rng = self.sim.rng.stream("network.delays")
        self._propose = (
            adv.propose_delay
            if type(adv).propose_delay is not Adversary.propose_delay
            else None
        )

    # -- registration -----------------------------------------------------

    def register(self, process: Process) -> Process:
        """Attach a process; its ``name`` becomes its network address."""
        if process.name in self._processes:
            raise NetworkError(f"duplicate process name: {process.name!r}")
        self._processes[process.name] = process
        return process

    def process(self, name: str) -> Process:
        """Look up a registered process by name."""
        try:
            return self._processes[name]
        except KeyError:
            raise NetworkError(f"unknown process: {name!r}") from None

    def names(self) -> List[str]:
        """Sorted registered process names."""
        return sorted(self._processes)

    # -- sending ------------------------------------------------------------

    def send(
        self,
        sender: Process,
        recipient: str,
        kind: MsgKind,
        payload: Any = None,
    ) -> Envelope:
        """Send a message; returns the envelope placed in flight.

        Sender attribution uses the *process object*, not a name string,
        so protocol code cannot spoof the envelope-level sender — the
        mechanical version of "Byzantine model with authentication".
        """
        if self._processes.get(sender.name) is not sender:
            raise NetworkError(
                f"process {sender.name!r} is not registered with this network"
            )
        if recipient not in self._processes:
            raise NetworkError(f"unknown recipient: {recipient!r}")
        sim = self.sim
        now = sim.now
        envelope = Envelope(
            sender=sender.name,
            recipient=recipient,
            kind=kind,
            payload=payload,
            send_time=now,
        )
        propose = self._propose
        proposal = propose(envelope, now) if propose is not None else None
        deliver_at = self.timing.delivery_time(envelope, now, self._rng, proposal)
        stats = self.stats
        stats.sent += 1
        kind_value = kind.value
        stats.by_kind[kind_value] = stats.by_kind.get(kind_value, 0) + 1
        # Reduced-mode recorders filter SEND out anyway; checking the
        # keep set here skips the record call (and its kwargs dict) on
        # the campaign hot path.  ``_keep`` is the recorder's own
        # filter set, read directly to spare a method call per send.
        trace = sim.trace
        keep = trace._keep
        if keep is None or _SEND in keep:
            trace.record(
                now,
                _SEND,
                sender.name,
                to=recipient,
                msg_kind=kind_value,
                msg_id=envelope.msg_id,
                deliver_at=deliver_at,
            )
        sim.schedule_at(
            deliver_at,
            self._deliver,
            envelope,
            priority=_DELIVERY,
            label="deliver",
        )
        return envelope

    def _deliver(self, envelope: Envelope) -> None:
        sim = self.sim
        process = self._processes.get(envelope.recipient)
        now = sim.now
        latency = now - envelope.send_time
        stats = self.stats
        stats.delivered += 1
        stats.total_latency += latency
        trace = sim.trace
        keep = trace._keep
        if keep is None or _RECEIVE in keep:
            trace.record(
                now,
                _RECEIVE,
                envelope.recipient,
                frm=envelope.sender,
                msg_kind=envelope.kind.value,
                msg_id=envelope.msg_id,
                latency=latency,
            )
        # A crashed process is down: traffic addressed to it during the
        # downtime is lost with its volatile state (fail-stop model).
        if process is not None and not process.terminated and not process.crashed:
            process.handle_message(envelope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({len(self._processes)} processes, {self.timing!r}, "
            f"adversary={self.adversary.describe()})"
        )


__all__ = ["Network", "NetworkStats"]
