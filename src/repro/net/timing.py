"""Timing models: synchrony, partial synchrony, asynchrony.

The paper's three theorems are parameterised exactly by these models:

* **Synchrony** (:class:`Synchronous`) — every message is delivered
  within a *known* bound Δ.  Theorem 1: the time-bounded protocol works.
* **Partial synchrony** (:class:`PartialSynchrony`) — there is a Global
  Stabilisation Time (GST), *unknown to the protocol*: messages sent at
  time ``t`` are delivered by ``max(t, GST) + Δ`` (Dwork–Lynch–
  Stockmeyer).  Theorem 2: no eventually-terminating protocol exists;
  Theorem 3: a weak-liveness protocol does.
* **Asynchrony** (:class:`Asynchronous`) — delays are finite but
  unbounded and unknown.

A timing model answers one question for the network: *when is this
message delivered?*  The model first lets the adversary propose a delay
and then **clamps** the proposal to whatever the model permits — this
cleanly realises "the adversary controls scheduling within the model's
constraint".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..errors import TimingModelError
from ..sim.rng import RngStream
from .message import Envelope


class TimingModel(ABC):
    """Delivery-time policy for a network."""

    #: Message-delay bound known to protocol participants, or ``None``
    #: when the model offers no usable bound (partial synchrony and
    #: asynchrony — protocols reading it anyway is exactly the unsound
    #: behaviour exposed by experiment E3).
    known_bound: Optional[float] = None

    @abstractmethod
    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        """Baseline delay when the adversary expresses no preference."""

    @abstractmethod
    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        """Restrict a proposed delay to what the model permits."""

    def delivery_time(
        self,
        envelope: Envelope,
        send_time: float,
        rng: RngStream,
        proposed_delay: Optional[float] = None,
    ) -> float:
        """Final delivery instant for ``envelope`` sent at ``send_time``."""
        delay = (
            self.sample_delay(envelope, send_time, rng)
            if proposed_delay is None
            else proposed_delay
        )
        if delay < 0.0 or delay != delay:
            raise TimingModelError(f"invalid proposed delay {delay!r}")
        return send_time + self.clamp(envelope, send_time, delay)


class Synchronous(TimingModel):
    """Known delay bound Δ; optional known minimum delay.

    Parameters
    ----------
    delta:
        Upper bound on message delay, known to all participants.
    min_delay:
        Lower bound on message delay (default 0).
    jitter:
        When sampling baseline delays, draw uniformly from
        ``[min_delay, min_delay + jitter * (delta - min_delay)]``.
        ``jitter=1`` uses the full window; ``jitter=0`` always takes
        ``min_delay``.
    """

    def __init__(self, delta: float, min_delay: float = 0.0, jitter: float = 1.0) -> None:
        if delta <= 0:
            raise TimingModelError(f"delta must be > 0, got {delta!r}")
        if not (0.0 <= min_delay <= delta):
            raise TimingModelError(
                f"min_delay must be in [0, delta], got {min_delay!r}"
            )
        if not (0.0 <= jitter <= 1.0):
            raise TimingModelError(f"jitter must be in [0, 1], got {jitter!r}")
        self.delta = float(delta)
        self.min_delay = float(min_delay)
        self.jitter = float(jitter)
        self.known_bound = self.delta
        self._jitter_hi = self.min_delay + self.jitter * (self.delta - self.min_delay)

    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        # An empty jitter window draws nothing, so ``jitter=0`` leaves
        # the delay stream untouched.
        if self._jitter_hi > self.min_delay:
            return rng.uniform(self.min_delay, self._jitter_hi)
        return self.min_delay

    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        return min(max(proposed_delay, self.min_delay), self.delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Synchronous(delta={self.delta}, min_delay={self.min_delay})"


class PartialSynchrony(TimingModel):
    """DLS Global-Stabilisation-Time model.

    A message sent at ``t`` is delivered by ``max(t, GST) + Δ``.  Before
    GST the adversary may stretch delays arbitrarily up to that horizon;
    after GST the system behaves synchronously with bound Δ.  Crucially
    ``known_bound`` is ``None``: correct protocols must not rely on Δ
    or GST.

    Parameters
    ----------
    gst:
        Global stabilisation time.
    delta:
        Post-GST delay bound.
    pre_gst_scale:
        Mean of the baseline (non-adversarial) pre-GST delay
        distribution, expressed as a multiple of Δ.
    """

    def __init__(self, gst: float, delta: float, pre_gst_scale: float = 4.0) -> None:
        if delta <= 0:
            raise TimingModelError(f"delta must be > 0, got {delta!r}")
        if gst < 0:
            raise TimingModelError(f"gst must be >= 0, got {gst!r}")
        if pre_gst_scale < 0:
            raise TimingModelError(f"pre_gst_scale must be >= 0, got {pre_gst_scale!r}")
        self.gst = float(gst)
        self.delta = float(delta)
        self.pre_gst_scale = float(pre_gst_scale)
        self.known_bound = None

    def deadline(self, send_time: float) -> float:
        """Latest permitted delivery instant for a ``send_time`` send."""
        return max(send_time, self.gst) + self.delta

    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        if send_time >= self.gst:
            return rng.uniform(0.0, self.delta)
        if self.pre_gst_scale > 0:
            raw = rng.expovariate(1.0 / (self.pre_gst_scale * self.delta))
        else:
            raw = 0.0
        return min(raw, self.deadline(send_time) - send_time)

    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        latest = self.deadline(send_time) - send_time
        return min(proposed_delay, latest)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialSynchrony(gst={self.gst}, delta={self.delta})"


class Asynchronous(TimingModel):
    """Finite but unbounded delays; no information for protocols.

    ``max_delay`` exists purely to keep simulations finite — it is an
    artefact of simulation, not a bound available to protocols (and the
    adversary can use all of it).
    """

    def __init__(self, mean_delay: float = 1.0, max_delay: float = 1e6) -> None:
        if mean_delay <= 0:
            raise TimingModelError(f"mean_delay must be > 0, got {mean_delay!r}")
        if max_delay < mean_delay:
            raise TimingModelError("max_delay must be >= mean_delay")
        self.mean_delay = float(mean_delay)
        self.max_delay = float(max_delay)
        self.known_bound = None

    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        return min(rng.expovariate(1.0 / self.mean_delay), self.max_delay)

    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        return min(proposed_delay, self.max_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Asynchronous(mean={self.mean_delay})"


__all__ = ["Asynchronous", "PartialSynchrony", "Synchronous", "TimingModel"]
