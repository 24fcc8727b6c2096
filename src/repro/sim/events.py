"""Event records for the discrete-event simulation kernel.

An :class:`Event` is an immutable-ish record of *something that will
happen*: a callback to invoke at a given simulated time.  Events are
totally ordered by ``(time, priority, seq)`` where ``seq`` is a
monotonically increasing sequence number assigned at scheduling time.
The sequence number guarantees a *deterministic* ordering even when many
events share a timestamp — a crucial property for reproducible
simulations (same seed, same trace).

Events support O(1) cancellation: ``Simulator.cancel`` marks the event
cancelled and drops its callback and arguments, and the kernel discards
the remaining shell lazily when it reaches the head of the heap, so a
cancelled event keeps nothing alive while it waits there.  Firing marks
the event ``fired`` instead: a fired event is spent, so cancelling it
afterwards is a no-op.

``Event`` is a hand-written ``__slots__`` class rather than a
dataclass: event construction is the hottest code in the repo (every
schedule touches it), so instances carry no ``__dict__``.  Events are
never compared with each other: the kernel keys its heap entries by
``(time, priority, seq)`` directly, so heap sifts compare native
floats/ints.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Any, Callable, Optional, Tuple


class EventPriority(IntEnum):
    """Priority classes used to break ties between same-time events.

    Lower numeric value runs first.  The classes encode the *causal
    layering* of a simulation step: message deliveries happen before
    timer expirations at the same instant (a message arriving exactly at
    a deadline is still "in time"), and bookkeeping (monitors, stop
    checks) runs last.
    """

    URGENT = 0
    DELIVERY = 10
    TIMER = 20
    INTERNAL = 30
    MONITOR = 40


#: Global sequence counter shared by all simulators in a process.  Using
#: a single counter keeps event identity unique across simulators, which
#: simplifies debugging of multi-simulator tests; determinism within one
#: simulator only depends on the *relative* order of its own events.
_SEQ = itertools.count()
_next_seq = _SEQ.__next__


class Event:
    """A scheduled callback.

    Parameters
    ----------
    time:
        Absolute simulated (global) time at which the callback fires.
    priority:
        Tie-break class; see :class:`EventPriority`.
    fn:
        Zero-argument-compatible callable invoked when the event fires.
        Positional arguments may be captured in ``args``.
    args:
        Positional arguments passed to ``fn``.
    label:
        Free-form debugging label recorded in traces.
    """

    __slots__ = (
        "time",
        "priority",
        "fn",
        "args",
        "label",
        "seq",
        "cancelled",
        "fired",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        label: str = "",
        seq: Optional[int] = None,
        cancelled: bool = False,
        fired: bool = False,
    ) -> None:
        if seq is None:
            seq = _next_seq()
        self.time = time
        self.priority = priority
        self.fn = fn
        self.args = args
        self.label = label
        self.seq = seq
        self.cancelled = cancelled
        self.fired = fired

    def sort_key(self) -> Tuple[float, int, int]:
        """Total-order key: time, then priority, then insertion order."""
        return (self.time, self.priority, self.seq)

    @property
    def alive(self) -> bool:
        """Whether the event will still fire when its time comes."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self.cancelled else "fired" if self.fired else "alive"
        )
        name = self.label or getattr(self.fn, "__name__", "fn")
        return f"Event(t={self.time:.6g}, prio={self.priority}, {name}, {state})"


def make_event(
    time: float,
    fn: Callable[..., Any],
    *args: Any,
    priority: int = EventPriority.INTERNAL,
    label: str = "",
) -> Event:
    """Convenience constructor mirroring :meth:`Simulator.schedule_at`."""
    return Event(time=time, priority=int(priority), fn=fn, args=args, label=label)


__all__ = ["Event", "EventPriority", "make_event"]
