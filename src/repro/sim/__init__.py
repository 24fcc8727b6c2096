"""Discrete-event simulation kernel.

The substrate every other subsystem runs on: a deterministic sequential
event loop (:class:`Simulator`), actors (:class:`Process`), structured
tracing (:class:`TraceRecorder`), and reproducible named random streams
(:class:`RngRegistry`).
"""

from .decision_log import DecisionLog
from .events import Event, EventPriority, make_event
from .faults import CRASH_POINTS, FaultInjector
from .kernel import Simulator
from .process import Process
from .rng import RngRegistry, RngStream, derive_seed
from .trace import TraceEvent, TraceKind, TraceRecorder

__all__ = [
    "CRASH_POINTS",
    "DecisionLog",
    "Event",
    "EventPriority",
    "FaultInjector",
    "Process",
    "RngRegistry",
    "RngStream",
    "Simulator",
    "TraceEvent",
    "TraceKind",
    "TraceRecorder",
    "derive_seed",
    "make_event",
]
