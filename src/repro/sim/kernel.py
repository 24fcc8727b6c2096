"""The discrete-event simulation kernel.

:class:`Simulator` advances a virtual *global* clock by executing events
in ``(time, priority, seq)`` order.  The kernel is deliberately small:
everything domain-specific (networks, clocks, automata, ledgers) is
layered on top of ``schedule`` / ``cancel`` / ``run``.

The kernel owns its event heap.  Entries are flat ``(time, priority,
seq, event)`` tuples, so every sift compares native floats and ints and
never an ``Event`` (``seq`` is unique, so the trailing event is never
compared).  :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`
push, :meth:`Simulator.cancel` marks the event and drops its callback
and arguments, and :meth:`Simulator.run` is the only code that pops: it
discards a cancelled head lazily when it reaches the root.  Until then
the heap keeps a bare shell of the cancelled event, which reaches
nothing its callback did: a workload payment's cancelled deadline lies
deep in the heap, and must not keep the payment's world alive.

Determinism contract
--------------------
Given the same initial schedule and the same callbacks (which may draw
randomness only from :class:`~repro.sim.rng.RngRegistry` streams), two
runs produce byte-identical traces.  This is what makes the experiment
suite reproducible and the bounded explorer sound.

Parked events
-------------
A periodic timer whose firings change nothing but a count (an idle
chain's block tick) can be *parked* (:meth:`Simulator.park`).  It keeps
its heap entry and still fires as an executed event every period, but
the kernel re-arms it in place instead of calling back, drawing its
next ``seq`` exactly where a callback re-arming itself would draw it.
Unparking restores the callback, and the event fires at the place it
holds.  Every count and every event order is that of the running timer.
While parked, the heap entry keeps only the tick's period and firing
count; the saved callback waits on the :class:`Park` handle, which the
event's owner holds.  So a parked tick never keeps its owner alive: an
owner nothing else references is freed, and its tick fires on.
"""

from __future__ import annotations

import sys
from heapq import (
    heappop as _heappop,
    heappush as _heappush,
    heapreplace as _heapreplace,
)
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from ..errors import SchedulingError, SimulationError
from .events import Event, EventPriority, _next_seq
from .rng import RngRegistry
from .trace import TraceRecorder

if TYPE_CHECKING:
    from .process import Latch

#: Default scheduling priority as a plain ``int``: keeping the enum
#: out of the default argument means the hot path never pays the
#: ``int(EventPriority.INTERNAL)`` conversion for ordinary events.
_INTERNAL = int(EventPriority.INTERNAL)

_EVENT_NEW = Event.__new__
_INF = float("inf")

#: One heap entry: the event's sort key, flattened, then the event.
_Entry = Tuple[float, int, int, Event]

if sys.implementation.name == "cpython":
    _getrefcount = sys.getrefcount
else:
    # Slab recycling reads CPython reference counts (see Simulator.run).
    # Elsewhere the count means nothing, so report none: no spent event
    # is ever recycled and every schedule allocates a fresh one.
    def _getrefcount(obj: object) -> int:
        return 0


class _Tick:
    """What a parked event's heap entry keeps: its period and firings."""

    __slots__ = ("interval", "firings")

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.firings = 0


def _parked(tick: _Tick) -> None:
    """The callback of a parked event: the kernel re-arms, never calls."""
    raise SimulationError(
        f"a parked event (period {tick.interval!r}) cannot be fired"
    )


class Park:
    """The handle of a parked event (see :meth:`Simulator.park`).

    While parked, the event's callback is the kernel's ``_parked``
    sentinel and its only argument the tick's period and firing count;
    the original callback and arguments wait here, on the handle the
    event's owner holds, and nothing in the heap reaches them.
    """

    __slots__ = ("event", "_tick", "_fn", "_args")

    def __init__(self, event: Event, tick: _Tick) -> None:
        self.event = event
        self._tick = tick
        self._fn: Callable[..., Any] = event.fn
        self._args: Tuple[Any, ...] = event.args

    @property
    def firings(self) -> int:
        """How many times the event fired in place while parked."""
        return self._tick.firings

    def unpark(self) -> None:
        """Restore the callback; the event fires at the place it holds."""
        event = self.event
        event.fn = self._fn
        event.args = self._args


class Simulator:
    """Sequential discrete-event simulator with a deterministic order.

    Parameters
    ----------
    seed:
        Master seed for the simulation's random streams.
    trace:
        Optional externally owned recorder; a fresh one is created if
        omitted.
    """

    # Every event execution reads several of these attributes; slots
    # keep those loads off the instance-dict path.
    __slots__ = (
        "_now",
        "_heap",
        "_free",
        "_running",
        "_stopped",
        "_executed",
        "rng",
        "trace",
        "latch",
    )

    def __init__(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        self._now = 0.0
        self._heap: List[_Entry] = []
        #: Slab free list of spent :class:`Event` shells.  :meth:`run`
        #: recycles an event here after it fires (or is discarded as a
        #: dead head) *only* when it can prove no external reference to
        #: the object survives, and :meth:`schedule` pops the shell back
        #: out instead of allocating.  ``_heap`` and ``_free`` are only
        #: mutated in place, so :meth:`run` may hoist references to them.
        self._free: List[Event] = []
        self._running = False
        self._stopped = False
        self._executed = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        #: The running session's completion latch, read by
        #: :meth:`~repro.sim.process.Process.terminate` (``None``: no
        #: process gates this simulator's run).
        self.latch: Optional["Latch"] = None

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current global simulated time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events fired so far.

        Maintained incrementally, so code reading it inside an event,
        or right after a run that ``stop()`` ended, sees a count that
        already includes that event — what per-session event accounting
        on a shared kernel relies on.
        """
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled, counted when read.

        The heap never holds a fired event (``fired`` is set only after
        the pop), so its live entries are the uncancelled ones.
        """
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _INTERNAL,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        Raises
        ------
        SchedulingError
            If ``delay`` is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay!r}")
        # Inlined fast path: this is the hottest call in the repo
        # (every timer/delivery goes through it), so the event comes
        # off the slab free list when one is available (built
        # field-by-field either way, skipping the Event.__init__
        # frame) and is pushed straight into the heap.  `schedule_at`
        # repeats this body rather than being called from here: that
        # spares a Python frame per timer, and perfbench's `sim.timers`
        # counts calls to both, so delegating would count each relative
        # timer twice.  `time >= now` holds by construction, so
        # `time < inf` is the whole finiteness check (NaN compares
        # false and is rejected).
        time = self._now + delay
        if not (time < _INF):
            raise SchedulingError(f"non-finite event time: {time!r}")
        if priority.__class__ is not int:
            priority = int(priority)
        free = self._free
        event = free.pop() if free else _EVENT_NEW(Event)
        event.time = time
        event.priority = priority
        event.fn = fn
        event.args = args
        event.label = label
        event.seq = seq = _next_seq()
        event.cancelled = False
        event.fired = False
        _heappush(self._heap, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _INTERNAL,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute global ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        # `time >= now >= 0` holds past the check above (and -inf/NaN
        # fail it or the one below), so `time < inf` is the whole
        # finiteness check — same outcome as math.isfinite.
        if not (time < _INF):
            raise SchedulingError(f"non-finite event time: {time!r}")
        if priority.__class__ is not int:
            priority = int(priority)
        free = self._free
        event = free.pop() if free else _EVENT_NEW(Event)
        event.time = time
        event.priority = priority
        event.fn = fn
        event.args = args
        event.label = label
        event.seq = seq = _next_seq()
        event.cancelled = False
        event.fired = False
        _heappush(self._heap, (time, priority, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent).

        Marks the event and drops its callback and arguments, so the
        shell the heap keeps until :meth:`run` discards it at the head
        holds nothing alive.  Cancelling a fired event is a no-op.
        """
        if not event.fired:
            event.cancelled = True
            event.fn = None
            event.args = None

    def park(self, event: Event, interval: float) -> Park:
        """Park a pending periodic event until its handle unparks it.

        The event keeps its place in the heap.  Each time it reaches
        the head it fires as an executed event in every respect (the
        clock, :attr:`executed_events`, :meth:`run`'s count and
        budget), but instead of calling back the kernel re-arms it
        ``interval`` later with a fresh ``seq`` — the order a callback
        re-arming the same timer would produce.  It calls nothing, so
        it cannot terminate a process or stop the run.  Cancelling a
        parked event works as for any other.

        The heap entry keeps only the period and the firing count; the
        callback and its arguments move to the returned handle, so the
        tick keeps nothing alive that only the callback reached.

        Raises
        ------
        SchedulingError
            If the event is not pending, is already parked, or
            ``interval`` is not positive and finite.
        """
        if not event.alive or event.fn is _parked:
            raise SchedulingError(f"cannot park {event!r}")
        if not (0.0 < interval < _INF):
            raise SchedulingError(f"park interval must be > 0: {interval!r}")
        tick = _Tick(interval)
        park = Park(event, tick)
        event.fn = _parked
        event.args = (tick,)
        return park

    def stop(self) -> None:
        """Request the run loop to halt after the current event.

        The request holds for the current :meth:`run` only: the next
        call clears it, so a stop requested outside a run is dropped.
        """
        self._stopped = True

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Execute exactly one event: ``run(max_events=1)``.

        Like :meth:`run`, a step cannot be taken from inside a running
        callback.

        Returns
        -------
        bool
            ``True`` if an event was executed (a parked event's in-place
            firing included), ``False`` if none was pending.
        """
        return self.run(max_events=1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until no event is pending, ``until`` is reached, or stopped.

        Parameters
        ----------
        until:
            Inclusive global-time horizon.  Events scheduled strictly
            after ``until`` remain pending; the clock is advanced to
            ``until`` whenever the horizon is the binding constraint —
            including when the heap is empty or drains before the
            horizon — so latency read from :attr:`now` is never short
            of the simulated span.  (A ``stop()`` request leaves the
            clock at the last executed event.)
        max_events:
            Upper bound on events executed in this call (safety valve
            against livelock in adversarial scenarios).  Unlike
            ``until`` this bound does *not* advance the clock: when it
            binds, the clock stays at the last executed event's time.

        Returns
        -------
        int
            Number of events executed by this call.  A parked event's
            in-place firing is an executed event: it moves the clock and
            counts here, against ``max_events`` and in
            :attr:`executed_events` like any other.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        self._stopped = False
        # Hot loop: one head access per event, the heap and the slab
        # hoisted out of the loop.  This is the only code that pops
        # the heap.  A cancelled head is discarded
        # lazily; no fired event is ever in the heap, because `fired`
        # is set only after the pop (and before the callback, so an
        # event whose callback raises is spent all the same).  Event
        # times are always finite, so a missing horizon/event budget
        # normalises to infinity and each needs just one comparison
        # per event.
        #
        # Slab recycling: a spent event (fired, or discarded as a dead
        # head) goes back on the free list *only* when exactly
        # three references remain — the popped heap entry still held by
        # `head`, the `event` local, and getrefcount's own argument.
        # Any external holder (a timer table, a handle a test kept, a
        # protocol field) raises the count and vetoes the recycle, so
        # a handle someone can still cancel() through is never reused
        # — the cancel-after-fire no-op contract survives.  Events
        # have no __weakref__ slot, so no hidden referrers exist.  Off
        # CPython `_getrefcount` reports 0, so nothing is recycled.
        #
        # Parked events: one identity check per event.  A parked head
        # fires in place — re-armed one interval later by a single
        # heapreplace, its next seq drawn now — and is never recycled
        # (it never leaves the heap).
        heap = self._heap
        free_append = self._free.append
        heappop = _heappop  # local binding: LOAD_FAST in the loop
        heapreplace = _heapreplace
        next_seq = _next_seq
        parked = _parked
        getrefcount = _getrefcount
        executed = 0
        horizon = until if until is not None else _INF
        budget = max_events if max_events is not None else _INF
        # Whether the loop ended because no due event remained (heap
        # drained or horizon passed) — the only exits on which the
        # horizon may bind the clock.  stop() and the event budget
        # leave the clock at the last executed event.
        exhausted = False
        try:
            while not self._stopped and executed < budget:
                if not heap:
                    exhausted = True
                    break
                head = heap[0]
                event = head[3]
                if event.cancelled:
                    heappop(heap)  # discard the dead head lazily
                    if getrefcount(event) == 3:
                        free_append(event)  # cancel() emptied it
                    continue
                time = head[0]
                if time > horizon:
                    exhausted = True
                    break
                self._now = time
                executed += 1
                self._executed += 1
                fn = event.fn
                if fn is parked:
                    tick = event.args[0]
                    tick.firings += 1
                    event.time = later = time + tick.interval
                    event.seq = seq = next_seq()
                    heapreplace(heap, (later, event.priority, seq, event))
                else:
                    heappop(heap)
                    event.fired = True
                    fn(*event.args)
                    if getrefcount(event) == 3:
                        event.fn = None
                        event.args = None
                        free_append(event)
        finally:
            self._running = False
        if exhausted and until is not None and until > self._now:
            # The horizon binds whenever no event at or before `until`
            # remains — including on an empty heap.
            self._now = until
        return executed

    # -- arena lifecycle --------------------------------------------------

    def reset(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        """Return the simulator to a freshly constructed state.

        The arena lifecycle: one simulator serves many trials.  The
        clock, executed-event count, completion latch, and stop flag are
        cleared; the random registry is rebuilt from ``seed`` and the
        trace replaced (a fresh full recorder when ``trace`` is
        omitted) — exactly the state ``__init__`` would produce.
        Pending events are dropped but not recycled (the previous
        trial's processes may still hold them); the slab of recycled
        event shells is kept, so steady-state arena trials allocate no
        new events.

        Raises
        ------
        SimulationError
            If called re-entrantly from inside :meth:`run`.
        """
        if self._running:
            raise SimulationError("cannot reset a running Simulator")
        self._now = 0.0
        self._heap.clear()
        self._stopped = False
        self._executed = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        self.latch = None

    # -- introspection ----------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6g}, pending={self.pending_events}, "
            f"executed={self._executed})"
        )


__all__ = ["Simulator"]
