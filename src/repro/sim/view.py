"""Session-scoped views over a shared simulation kernel.

A workload runs many payment sessions on **one** :class:`Simulator`:
they share the event queue and the global clock (their events genuinely
interleave), but each session must keep its *own* trace and its own
random streams — otherwise a session's record bytes would depend on
which siblings happen to be in flight, and the per-payment determinism
contract (same payment seed ⇒ same outcome) would be lost.

:class:`SessionView` is that separation, made structural: it presents
the :class:`Simulator` surface the component stack actually consumes
(``now`` / ``schedule`` / ``schedule_at`` / ``cancel`` / ``park`` /
``trace`` / ``rng`` / ``latch`` / the event counters), delegating
time and scheduling to the shared kernel while owning a private
:class:`~repro.sim.trace.TraceRecorder`, a private
:class:`~repro.sim.rng.RngRegistry` seeded from the payment's own
seed, and the payment's own completion latch.
Networks, ledgers, processes, and clocks take the view wherever they
would take a simulator and need no changes at all.

The kernel's :class:`Simulator` has ``__slots__`` (hot-path layout), so
this is a composition-based proxy, not a subclass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import Event, EventPriority
from .kernel import Park, Simulator
from .rng import RngRegistry
from .trace import TraceRecorder

if TYPE_CHECKING:
    from .process import Latch

_INTERNAL = int(EventPriority.INTERNAL)


class SessionView:
    """One session's private window onto a shared :class:`Simulator`.

    Parameters
    ----------
    kernel:
        The shared simulator; time and scheduling delegate to it.
    seed:
        Master seed for this session's private RNG registry (used when
        ``rng`` is not given) — the same seed a dedicated simulator
        would have been built with, so a session behaves identically
        whether it runs alone on its own kernel or among siblings on a
        shared one.
    trace:
        Optional externally owned recorder; a fresh full recorder is
        created if omitted.
    rng:
        Optional externally owned registry, overriding ``seed``.
    """

    __slots__ = ("kernel", "rng", "trace", "latch")

    def __init__(
        self,
        kernel: Simulator,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        self.kernel = kernel
        self.rng = rng if rng is not None else RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        #: This session's completion latch (see :attr:`Simulator.latch`).
        self.latch: Optional["Latch"] = None

    # -- arena lifecycle -------------------------------------------------

    def reset(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        """Re-seed the view for a new session on the same kernel.

        The arena lifecycle: one view serves many payments.  The shared
        kernel keeps running (time and the event queue are communal),
        so only the session-private halves are renewed — the RNG
        registry is rebuilt from ``seed``, the trace replaced (a fresh
        full recorder when ``trace`` is omitted) and the completion
        latch cleared, mirroring :meth:`Simulator.reset` for the
        solo-kernel case.
        """
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        self.latch = None

    # -- time / counters (shared) ---------------------------------------

    @property
    def now(self) -> float:
        """Current global simulated time (the kernel's clock)."""
        return self.kernel.now

    @property
    def executed_events(self) -> int:
        """Kernel-wide executed-event count (see the kernel's note on
        mid-run accuracy; per-session counts are differences of this)."""
        return self.kernel.executed_events

    @property
    def pending_events(self) -> int:
        """Kernel-wide live event count."""
        return self.kernel.pending_events

    # -- scheduling (shared) --------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _INTERNAL,
        label: str = "",
    ) -> Event:
        return self.kernel.schedule(
            delay, fn, *args, priority=priority, label=label
        )

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _INTERNAL,
        label: str = "",
    ) -> Event:
        return self.kernel.schedule_at(
            time, fn, *args, priority=priority, label=label
        )

    def cancel(self, event: Event) -> None:
        self.kernel.cancel(event)

    def park(self, event: Event, interval: float) -> Park:
        return self.kernel.park(event, interval)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SessionView(kernel={self.kernel!r})"


__all__ = ["SessionView"]
