"""Open-loop arrival processes for workload payments.

A workload offers payments to the substrate at a configured rate
(*offered load* — payments per simulated time unit), independent of how
fast previous payments complete.  Two processes are supported:

``uniform``
    Deterministic, evenly spaced arrivals: payment *k* arrives at
    ``k / rate``.  The first payment arrives at time 0, which is what
    makes a one-payment workload the exact analogue of a solo campaign
    trial (same start time, same horizon window).

``poisson``
    A Poisson process of intensity ``rate``: i.i.d. exponential gaps,
    drawn from the cell's dedicated RNG stream so arrival times are a
    pure function of the cell seed.

Both return times in non-decreasing order, ready to be scheduled on the
shared kernel.
"""

from __future__ import annotations

from typing import List

from ..errors import WorkloadError

#: Registered arrival-process names, in documentation order.
ARRIVAL_PROCESSES = ("uniform", "poisson")


def arrival_times(process: str, count: int, rate: float, rng) -> List[float]:
    """Arrival times for ``count`` payments at offered load ``rate``.

    ``rng`` is a :class:`random.Random`-compatible stream (only the
    Poisson process draws from it).
    """
    if count < 0:
        raise WorkloadError(f"payment count must be >= 0, got {count}")
    if not (rate > 0.0):
        raise WorkloadError(f"offered load must be positive, got {rate!r}")
    if process == "uniform":
        return [k / rate for k in range(count)]
    if process == "poisson":
        times: List[float] = []
        t = 0.0
        for _ in range(count):
            t += rng.expovariate(rate)
            times.append(t)
        return times
    raise WorkloadError(
        f"unknown arrival process {process!r}; "
        f"available: {', '.join(ARRIVAL_PROCESSES)}"
    )


__all__ = ["ARRIVAL_PROCESSES", "arrival_times"]
