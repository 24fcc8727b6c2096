"""Local clocks with bounded drift and skew.

The paper's headline refinement over Interledger's universal protocol is
tolerating *clock drift*: each participant reads time from its own clock
``now``, which may run at a rate different from real (global) time.

We model a local clock as the affine map::

    local(t) = skew + rate * t

with ``rate`` in ``[1 - rho, 1 + rho]`` for a drift bound ``rho < 1``.
The inverse map converts a local deadline into the global instant at
which it occurs, which is how timed-automata timeouts are scheduled on
the global-time kernel.

The affine model is the standard abstraction for drifting hardware
clocks over protocol-scale horizons (seconds to minutes): oscillator
rate error dominates and is locally constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClockError
from .sim.rng import RngStream


@dataclass(frozen=True)
class DriftingClock:
    """An affine local clock ``local(t) = skew + rate * t``.

    Parameters
    ----------
    rate:
        Clock speed relative to global time; must be strictly positive.
        ``rate > 1`` means the clock runs fast.
    skew:
        Clock reading at global time 0.
    """

    rate: float = 1.0
    skew: float = 0.0

    def __post_init__(self) -> None:
        if not (self.rate > 0.0):
            raise ClockError(f"clock rate must be > 0, got {self.rate!r}")
        if self.skew != self.skew:  # NaN guard
            raise ClockError("clock skew must be a number")

    # -- conversions -----------------------------------------------------

    def local_time(self, global_time: float) -> float:
        """Local reading at global instant ``global_time``."""
        return self.skew + self.rate * global_time

    def global_time(self, local_time: float) -> float:
        """Global instant at which the clock reads ``local_time``."""
        return (local_time - self.skew) / self.rate

    def local_duration(self, global_duration: float) -> float:
        """Local ticks elapsed during a global duration."""
        return self.rate * global_duration

    def global_duration(self, local_duration: float) -> float:
        """Global time needed for the clock to advance ``local_duration``."""
        return local_duration / self.rate

    # -- drift algebra -----------------------------------------------------

    def within_bound(self, rho: float) -> bool:
        """Whether this clock respects a drift bound ``rho``."""
        return (1.0 - rho) <= self.rate <= (1.0 + rho)


PERFECT_CLOCK = DriftingClock(rate=1.0, skew=0.0)


def random_clock(
    rng: RngStream,
    rho: float,
    max_skew: float = 0.0,
) -> DriftingClock:
    """Sample a clock uniformly within a drift bound ``rho``.

    Parameters
    ----------
    rng:
        Random stream to draw from (keeps the simulation deterministic).
    rho:
        Drift bound; the rate is drawn from ``[1 - rho, 1 + rho]``.
        Must lie in ``[0, 1)``.
    max_skew:
        Skew magnitude bound; the skew is drawn from
        ``[-max_skew, +max_skew]``.
    """
    if not (0.0 <= rho < 1.0):
        raise ClockError(f"drift bound rho must be in [0, 1), got {rho!r}")
    if max_skew < 0.0:
        raise ClockError(f"max_skew must be >= 0, got {max_skew!r}")
    rate = rng.uniform(1.0 - rho, 1.0 + rho)
    skew = rng.uniform(-max_skew, max_skew) if max_skew > 0 else 0.0
    return DriftingClock(rate=rate, skew=skew)


def extremal_clock(rho: float, fast: bool) -> DriftingClock:
    """The fastest (or slowest) clock allowed by drift bound ``rho``.

    The drift-soundness experiments (E2) use extremal clocks because the
    worst case for timeout calculus is a maximally fast upstream clock
    racing a maximally slow downstream clock.
    """
    if not (0.0 <= rho < 1.0):
        raise ClockError(f"drift bound rho must be in [0, 1), got {rho!r}")
    return DriftingClock(rate=(1.0 + rho) if fast else (1.0 - rho), skew=0.0)


__all__ = [
    "DriftingClock",
    "PERFECT_CLOCK",
    "extremal_clock",
    "random_clock",
]
