"""Asynchronous Networks of Timed Automata (ANTA) — the specification
formalism of the paper's Section 4, executable."""

from .automaton import TimedAutomaton
from .render import render_spec, render_specs
from .transitions import (
    AutomatonSpec,
    EmitFn,
    ReceiveSpec,
    SendSpec,
    StateKind,
    StateSpec,
    TimeoutSpec,
    resolve_name,
)

__all__ = [
    "AutomatonSpec",
    "EmitFn",
    "ReceiveSpec",
    "SendSpec",
    "StateKind",
    "StateSpec",
    "TimedAutomaton",
    "TimeoutSpec",
    "render_spec",
    "render_specs",
    "resolve_name",
]
