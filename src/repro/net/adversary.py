"""Message-scheduling adversaries.

An adversary proposes per-message delays; the timing model clamps the
proposal to whatever it permits (see :mod:`repro.net.timing`).  This
separation mirrors the proof structure of Theorem 2: the adversary is
*maximally powerful within the timing model* — under partial synchrony
it can stretch any pre-GST message, but it can never violate the
post-GST bound.

The adversaries here are scheduling-only.  Byzantine *behaviour* (lying,
withholding, equivocating) lives in :mod:`repro.byzantine` because it is
a property of participants, not of the network.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .message import Envelope, MsgKind

#: An adversary proposal: a delay in global-time units, or ``None`` to
#: let the timing model sample its baseline delay.
Proposal = Optional[float]

#: A very large delay; timing models clamp it to their actual maximum,
#: so proposing HOLD means "as late as the model allows".
HOLD = 1e18


class Adversary:
    """Base adversary: never interferes."""

    def propose_delay(self, envelope: Envelope, send_time: float) -> Proposal:
        """Return a proposed delay for ``envelope``, or ``None``."""
        return None

    def reset(self) -> None:
        """Discard per-run state, making the instance safe to reuse.

        Campaign trial assembly caches adversary instances per cell
        and resets them between runs; subclasses that accumulate state
        (attack logs, first-window counters) must clear it here.
        """

    def describe(self) -> str:
        """Human-readable name for experiment tables."""
        return type(self).__name__


class NullAdversary(Adversary):
    """Explicit no-op adversary (the honest network)."""


class PredicateDelayAdversary(Adversary):
    """Delay every message matching a predicate by a fixed proposal.

    Parameters
    ----------
    predicate:
        Selects the envelopes to attack.
    delay:
        Proposed delay for attacked envelopes (``HOLD`` = maximal).
    limit:
        Attack at most this many messages (``None`` = unlimited).
    """

    def __init__(
        self,
        predicate: Callable[[Envelope], bool],
        delay: float = HOLD,
        limit: Optional[int] = None,
    ) -> None:
        self.predicate = predicate
        self.delay = delay
        self.limit = limit
        self.attacked: List[int] = []

    def propose_delay(self, envelope: Envelope, send_time: float) -> Proposal:
        if self.limit is not None and len(self.attacked) >= self.limit:
            return None
        if self.predicate(envelope):
            self.attacked.append(envelope.msg_id)
            return self.delay
        return None

    def reset(self) -> None:
        self.attacked.clear()


class KindDelayAdversary(PredicateDelayAdversary):
    """Delay all messages of given kinds (e.g. every certificate χ)."""

    def __init__(
        self,
        kinds: Tuple[MsgKind, ...],
        delay: float = HOLD,
        limit: Optional[int] = None,
    ) -> None:
        self.kinds = tuple(kinds)
        super().__init__(lambda env: env.kind in self.kinds, delay=delay, limit=limit)

    def describe(self) -> str:
        names = ",".join(k.value for k in self.kinds)
        return f"KindDelayAdversary({names})"


class EdgeDelayAdversary(Adversary):
    """Delay all traffic on specific (sender, recipient) edges.

    Models a slow or attacked link, e.g. the Bob → e_{n-1} hop that the
    Theorem 2 adversary targets.
    """

    def __init__(self, edges: List[Tuple[str, str]], delay: float = HOLD) -> None:
        self.edges = set(edges)
        self.delay = delay

    def propose_delay(self, envelope: Envelope, send_time: float) -> Proposal:
        if (envelope.sender, envelope.recipient) in self.edges:
            return self.delay
        return None

    def describe(self) -> str:
        return f"EdgeDelayAdversary({sorted(self.edges)})"


class CertificateWithholdingAdversary(Adversary):
    """The Theorem 2 adversary.

    Holds every certificate (χ) message as long as the timing model
    allows, while leaving money and promise traffic untouched.  Under
    partial synchrony with GST beyond the protocol's timeout horizon
    this forces refund timeouts to fire *after* Bob irrevocably issued
    χ, breaking CS2 for any finite-timeout protocol; against a protocol
    with no timeout it prevents termination instead.  That disjunction
    is exactly the impossibility argument.
    """

    def __init__(self) -> None:
        self.held: List[int] = []

    def propose_delay(self, envelope: Envelope, send_time: float) -> Proposal:
        if envelope.kind is MsgKind.CERTIFICATE:
            self.held.append(envelope.msg_id)
            return HOLD
        return None

    def reset(self) -> None:
        self.held.clear()

    def describe(self) -> str:
        return "CertificateWithholdingAdversary"


class FirstWindowAdversary(Adversary):
    """Delay the first ``count`` messages of a kind past a boundary.

    Used to probe *boundary* behaviour: e.g. deliver χ exactly at, just
    before, or just after an escrow's timeout.
    """

    def __init__(self, kind: MsgKind, delay: float, count: int = 1) -> None:
        self.kind = kind
        self.delay = delay
        self.count = count
        self._seen = 0

    def propose_delay(self, envelope: Envelope, send_time: float) -> Proposal:
        if envelope.kind is self.kind and self._seen < self.count:
            self._seen += 1
            return self.delay
        return None

    def reset(self) -> None:
        self._seen = 0

    def describe(self) -> str:
        return f"FirstWindowAdversary({self.kind.value}, {self.delay})"


class CrashRestartAdversary(Adversary):
    """Crash–restart fault plan (the ``crash-restart`` campaign axis).

    Unlike the scheduling adversaries this one never touches a message:
    it *carries the fault plan* — which process to crash, at which named
    crash point (see :data:`repro.sim.faults.CRASH_POINTS`), and for how
    long — and the trial layer converts the plan into a live
    :class:`~repro.sim.faults.FaultInjector` attached to the session.
    It is stateless and safe to cache; the injector holds the per-run
    crash/recovery timestamps.
    """

    def __init__(self, victim: str, point: str, downtime: float) -> None:
        self.victim = victim
        self.point = point
        self.downtime = downtime

    def describe(self) -> str:
        return (
            f"CrashRestart({self.victim}@{self.point}, d={self.downtime})"
        )


class CompositeAdversary(Adversary):
    """Combine adversaries; the first non-``None`` proposal wins."""

    def __init__(self, *adversaries: Adversary) -> None:
        self.adversaries = list(adversaries)

    def propose_delay(self, envelope: Envelope, send_time: float) -> Proposal:
        for adversary in self.adversaries:
            proposal = adversary.propose_delay(envelope, send_time)
            if proposal is not None:
                return proposal
        return None

    def reset(self) -> None:
        for adversary in self.adversaries:
            adversary.reset()

    def describe(self) -> str:
        inner = ", ".join(a.describe() for a in self.adversaries)
        return f"Composite({inner})"


class RecordingAdversary(Adversary):
    """Wrap another adversary, logging (msg_id, proposal) decisions."""

    def __init__(self, inner: Adversary) -> None:
        self.inner = inner
        self.log: List[Tuple[int, Proposal]] = []

    def propose_delay(self, envelope: Envelope, send_time: float) -> Proposal:
        proposal = self.inner.propose_delay(envelope, send_time)
        self.log.append((envelope.msg_id, proposal))
        return proposal

    def reset(self) -> None:
        self.log.clear()
        self.inner.reset()

    def describe(self) -> str:
        return f"Recording({self.inner.describe()})"


__all__ = [
    "Adversary",
    "CertificateWithholdingAdversary",
    "CompositeAdversary",
    "CrashRestartAdversary",
    "EdgeDelayAdversary",
    "FirstWindowAdversary",
    "HOLD",
    "KindDelayAdversary",
    "NullAdversary",
    "PredicateDelayAdversary",
    "RecordingAdversary",
]
