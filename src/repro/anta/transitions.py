"""Declarative state/transition specifications for timed automata.

The ANTA formalism (paper §4) has two state flavours:

* **output (grey) states** — the automaton spends a bounded amount of
  time computing, then *sends* messages and moves on;
* **input (white) states** — the automaton waits, possibly forever,
  until an outgoing transition becomes enabled: either a receive
  ``r(id, m)`` or a clock condition ``now >= deadline``.

Specs are plain data so an automaton's structure can be rendered (we
regenerate the paper's Figure 2 textually from these objects) and
explored exhaustively by :mod:`repro.verification`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import AutomatonError
from ..net.message import Envelope, MsgKind

# Resolvers let specs reference "the upstream escrow" etc. symbolically:
# either a literal string or a function of the automaton instance.
NameResolver = Union[str, Callable[["TimedAutomaton"], str]]  # noqa: F821
TargetResolver = Union[str, Callable[["TimedAutomaton"], str]]  # noqa: F821


def resolve_name(resolver: NameResolver, automaton: Any) -> str:
    """Evaluate a symbolic participant reference."""
    return resolver if isinstance(resolver, str) else resolver(automaton)


class StateKind(str, Enum):
    """ANTA state flavours."""

    INPUT = "input"  # white: wait for receive/timeout transitions
    OUTPUT = "output"  # grey: compute (bounded), send, move on
    FINAL = "final"  # terminal


@dataclass
class ReceiveSpec:
    """An input transition ``r(frm, kind)`` with optional guard.

    Attributes
    ----------
    frm:
        Expected sender (symbolic).
    kind:
        Expected message kind.
    guard:
        Extra predicate over ``(automaton, envelope)``; payload
        validation (signature checks, amount checks) goes here.
    action:
        Side-effecting callback ``(automaton, envelope)`` run when the
        transition fires (clock assignments like ``x := now``, ledger
        operations, storing payloads).
    target:
        Next state (symbolic).
    label:
        Rendering label, e.g. ``"r(e0, $)"``.
    """

    frm: NameResolver
    kind: MsgKind
    target: TargetResolver
    guard: Optional[Callable[[Any, Envelope], bool]] = None
    action: Optional[Callable[[Any, Envelope], None]] = None
    label: str = ""

    def matches(self, automaton: Any, envelope: Envelope) -> bool:
        """Whether this transition is enabled by ``envelope``."""
        if envelope.kind is not self.kind:
            return False
        if envelope.sender != resolve_name(self.frm, automaton):
            return False
        if self.guard is not None and not self.guard(automaton, envelope):
            return False
        return True


@dataclass
class TimeoutSpec:
    """A clock transition ``now >= deadline`` in *local* time.

    Attributes
    ----------
    deadline:
        Function of the automaton returning the local-clock deadline
        (e.g. ``lambda a: a.vars["u"] + a.config["a_i"]``).
    action:
        Side-effecting callback ``(automaton,)``.
    target:
        Next state (symbolic).
    """

    deadline: Callable[[Any], float]
    target: TargetResolver
    action: Optional[Callable[[Any], None]] = None
    label: str = ""


@dataclass
class SendSpec:
    """One message emitted from an output state."""

    to: NameResolver
    kind: MsgKind
    payload: Any = None


#: Output-state behaviour: given the automaton, produce the messages to
#: send and the next state.  Separating "compute what to send" from the
#: framework keeps output states pure and easily testable.
EmitFn = Callable[[Any], Tuple[List[SendSpec], str]]


@dataclass
class StateSpec:
    """One automaton state.

    ``decision=True`` marks an output state as *decision-grade*: its
    emission is an irrevocable protocol decision (a commit, a refund),
    so a durable automaton write-ahead-logs it — and reports the
    ``pre-decision`` / ``post-sign-pre-send`` / ``post-send`` crash
    points around it (see :mod:`repro.sim.faults`).  The flag is inert
    unless the automaton has a decision log attached.
    """

    name: str
    kind: StateKind
    receives: List[ReceiveSpec] = field(default_factory=list)
    timeouts: List[TimeoutSpec] = field(default_factory=list)
    emit: Optional[EmitFn] = None
    on_enter: Optional[Callable[[Any], None]] = None
    decision: bool = False

    def __post_init__(self) -> None:
        if self.kind is StateKind.OUTPUT and self.emit is None:
            raise AutomatonError(f"output state {self.name!r} needs an emit function")
        if self.kind is not StateKind.OUTPUT and self.emit is not None:
            raise AutomatonError(f"non-output state {self.name!r} cannot emit")
        if self.kind is not StateKind.INPUT and (self.receives or self.timeouts):
            raise AutomatonError(
                f"only input states may own transitions ({self.name!r})"
            )
        if self.decision and self.kind is not StateKind.OUTPUT:
            raise AutomatonError(
                f"only output states can be decision-grade ({self.name!r})"
            )


@dataclass
class AutomatonSpec:
    """A complete automaton: named states plus the initial state."""

    name: str
    initial: str
    states: Dict[str, StateSpec] = field(default_factory=dict)

    def add(self, state: StateSpec) -> StateSpec:
        """Register a state (rejects duplicates)."""
        if state.name in self.states:
            raise AutomatonError(f"duplicate state {state.name!r} in {self.name!r}")
        self.states[state.name] = state
        return state

    def validate(self) -> None:
        """Check structural sanity: initial exists, targets resolvable.

        Symbolic (callable) targets are checked at runtime instead.
        """
        if self.initial not in self.states:
            raise AutomatonError(
                f"initial state {self.initial!r} missing from {self.name!r}"
            )
        for state in self.states.values():
            targets: List[TargetResolver] = [r.target for r in state.receives]
            targets += [t.target for t in state.timeouts]
            for target in targets:
                if isinstance(target, str) and target not in self.states:
                    raise AutomatonError(
                        f"state {state.name!r} targets unknown state {target!r}"
                    )


__all__ = [
    "AutomatonSpec",
    "EmitFn",
    "NameResolver",
    "ReceiveSpec",
    "SendSpec",
    "StateKind",
    "StateSpec",
    "TargetResolver",
    "TimeoutSpec",
    "resolve_name",
]
