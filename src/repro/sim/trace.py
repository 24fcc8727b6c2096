"""Structured trace recording.

Every observable action in a simulation — message send/receive, value
transfer, certificate issuance, state change, protocol decision — is
appended to a :class:`TraceRecorder` as a :class:`TraceEvent`.  Property
checkers (:mod:`repro.properties`) are *trace predicates*: they read the
finished trace plus the final ledger state and return verdicts.  Keeping
the trace structured (kind + actor + payload dict) rather than textual
makes those predicates precise and fast.

The recorder maintains a per-kind index alongside the append-only
list, so kind-filtered queries (the outcome collector's certificate
scans, ``termination_time``) touch only the matching events instead of
scanning the whole trace.  It also supports an opt-in *reduced*
recording level (``keep=``): campaign trials that only consume the
outcome's record columns keep just the checker-relevant kinds
(:data:`CHECKER_KINDS`) and skip constructing everything else.
"""

from __future__ import annotations

from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)


class TraceKind(str, Enum):
    """Categories of trace events."""

    SEND = "send"
    RECEIVE = "receive"
    TRANSFER = "transfer"
    ESCROW_DEPOSIT = "escrow_deposit"
    ESCROW_RELEASE = "escrow_release"
    ESCROW_REFUND = "escrow_refund"
    CERT_ISSUED = "cert_issued"
    CERT_RECEIVED = "cert_received"
    STATE = "state"
    TIMEOUT = "timeout"
    DECIDE = "decide"
    TERMINATE = "terminate"
    FAULT = "fault"
    NOTE = "note"


#: The kinds the outcome collector and the Definition 1/2 property
#: checkers actually consume (see ``PaymentOutcome.collect``): the
#: minimal safe ``keep=`` set for reduced-detail campaign recording.
CHECKER_KINDS: FrozenSet[TraceKind] = frozenset(
    {TraceKind.CERT_ISSUED, TraceKind.CERT_RECEIVED, TraceKind.TERMINATE}
)


class TraceEvent:
    """One recorded observation.

    A hand-written ``__slots__`` class rather than a dataclass: one
    instance is built per recorded event, which makes construction the
    hottest allocation in full-trace runs (a frozen dataclass pays an
    ``object.__setattr__`` per field).  Instances are immutable by
    convention — nothing in the repo mutates a recorded event.

    Attributes
    ----------
    time:
        Global simulated time of the observation.
    kind:
        Category; see :class:`TraceKind`.
    actor:
        Name of the participant/component the observation concerns.
    data:
        Kind-specific payload (message ids, amounts, state names, ...).
    seq:
        Position in the trace; a total order consistent with time.
    """

    __slots__ = ("time", "kind", "actor", "data", "seq")

    def __init__(
        self,
        time: float,
        kind: TraceKind,
        actor: str,
        data: Optional[Dict[str, Any]] = None,
        seq: int = 0,
    ) -> None:
        self.time = time
        self.kind = kind
        self.actor = actor
        self.data = data if data is not None else {}
        self.seq = seq

    def get(self, key: str, default: Any = None) -> Any:
        """Payload lookup shorthand."""
        return self.data.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.actor == other.actor
            and self.data == other.data
            and self.seq == other.seq
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(t={self.time:.6g}, {self.kind.value}, {self.actor}, "
            f"{self.data})"
        )


class TraceRecorder:
    """Append-only store of :class:`TraceEvent` records.

    Parameters
    ----------
    keep:
        ``None`` (the default) records everything.  A set of
        :class:`TraceKind` switches the recorder to *reduced* mode:
        only those kinds are stored — every other :meth:`record` call
        returns ``None`` without constructing an event.  Reduced
        traces renumber ``seq`` over the kept events; use full
        recording wherever the trace itself is an artifact (golden
        fixtures, trace analysis, the explorer).
    """

    def __init__(self, keep: Optional[FrozenSet[TraceKind]] = None) -> None:
        self._events: List[TraceEvent] = []
        self._by_kind: Dict[TraceKind, List[TraceEvent]] = {}
        self._keep = frozenset(keep) if keep is not None else None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def keep(self) -> Optional[FrozenSet[TraceKind]]:
        """The reduced-mode kind set, or ``None`` for full recording."""
        return self._keep

    def reset(self) -> None:
        """Forget every recorded event, keeping the ``keep`` filter.

        The arena lifecycle: one recorder serves many trials; a reset
        recorder records exactly like a freshly constructed one with
        the same ``keep`` set.
        """
        self._events.clear()
        self._by_kind.clear()

    def record(
        self, time: float, kind: TraceKind, actor: str, /, **data: Any
    ) -> Optional[TraceEvent]:
        """Append one event and return it (``None`` if filtered out)."""
        if self._keep is not None and kind not in self._keep:
            return None
        events = self._events
        event = TraceEvent(time, kind, actor, data, len(events))
        events.append(event)
        by_kind = self._by_kind.get(kind)
        if by_kind is None:
            self._by_kind[kind] = [event]
        else:
            by_kind.append(event)
        return event

    # -- queries -------------------------------------------------------

    def events(
        self,
        kind: Optional[TraceKind] = None,
        actor: Optional[str] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Filtered view of the trace, preserving order."""
        # The kind index bounds the scan to matching events; relative
        # order within one kind equals trace order (appends only).
        pool = (
            self._by_kind.get(kind, []) if kind is not None else self._events
        )
        if actor is None and predicate is None:
            return list(pool)
        out: List[TraceEvent] = []
        for e in pool:
            if actor is not None and e.actor != actor:
                continue
            if predicate is not None and not predicate(e):
                continue
            out.append(e)
        return out

    def first(
        self,
        kind: Optional[TraceKind] = None,
        actor: Optional[str] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> Optional[TraceEvent]:
        """First matching event or ``None``."""
        pool = (
            self._by_kind.get(kind, []) if kind is not None else self._events
        )
        for e in pool:
            if actor is not None and e.actor != actor:
                continue
            if predicate is not None and not predicate(e):
                continue
            return e
        return None

    def last(
        self,
        kind: Optional[TraceKind] = None,
        actor: Optional[str] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> Optional[TraceEvent]:
        """Last matching event or ``None``."""
        pool = (
            self._by_kind.get(kind, []) if kind is not None else self._events
        )
        for e in reversed(pool):
            if actor is not None and e.actor != actor:
                continue
            if predicate is not None and not predicate(e):
                continue
            return e
        return None

    def count(self, kind: Optional[TraceKind] = None, actor: Optional[str] = None) -> int:
        """Number of matching events (O(1) for pure kind/total counts)."""
        if actor is None:
            if kind is None:
                return len(self._events)
            return len(self._by_kind.get(kind, ()))
        pool = (
            self._by_kind.get(kind, []) if kind is not None else self._events
        )
        return sum(1 for e in pool if e.actor == actor)

    def actors(self) -> List[str]:
        """Sorted distinct actor names appearing in the trace."""
        return sorted({e.actor for e in self._events})

    def termination_time(self, actor: str) -> Optional[float]:
        """Time at which ``actor`` recorded TERMINATE, if it did."""
        e = self.first(kind=TraceKind.TERMINATE, actor=actor)
        return e.time if e is not None else None

    def span(self) -> Tuple[float, float]:
        """(first, last) event times; (0.0, 0.0) when empty."""
        if not self._events:
            return (0.0, 0.0)
        return (self._events[0].time, self._events[-1].time)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Serialise to a list of plain dicts (for JSON/CSV export)."""
        return [
            {
                "seq": e.seq,
                "time": e.time,
                "kind": e.kind.value,
                "actor": e.actor,
                **e.data,
            }
            for e in self._events
        ]


__all__ = ["CHECKER_KINDS", "TraceEvent", "TraceKind", "TraceRecorder"]
