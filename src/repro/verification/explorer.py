"""Bounded exhaustive exploration of message-delay schedules.

The only nondeterminism in a deterministic-protocol run is the network:
*when* each message is delivered (within the timing model's envelope).
This module enumerates that nondeterminism exhaustively for small
instances — the executable stand-in for the paper's proofs:

* Theorem 1 evidence: for ``n ∈ {1, 2}``, **every** delivery schedule
  in the synchronous envelope satisfies Definition 1.
* Theorem 3 evidence: likewise for the weak protocol and Definition 2.

Technique: *stateless search with replay* (the CHESS/dPOR family).  A
:class:`ScriptedDelayAdversary` replays a prefix of delay choices and
extends it with the first option whenever an unscripted decision point
appears; the explorer then backtracks depth-first over the recorded
decision points.  Determinism of the simulator guarantees that equal
script prefixes reproduce equal message sequences, which makes the
enumeration sound.

Decision points default to value-bearing messages (money and
certificates) to keep the tree tractable; promises/guarantees get the
first choice.  ``choices`` are *delay fractions* of the timing model's
envelope (the model still clamps, so every explored schedule is legal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.session import DEFAULT_HORIZON, PaymentSession
from ..errors import VerificationError
from ..net.adversary import Adversary
from ..net.message import Envelope, MsgKind

#: Default kinds treated as decision points.
DEFAULT_DECISION_KINDS = (MsgKind.MONEY, MsgKind.CERTIFICATE, MsgKind.DECISION)


class ScriptedDelayAdversary(Adversary):
    """Replays a delay script; extends it with defaults beyond the end.

    ``script`` holds *choice indices* into ``choices``; the adversary
    records every decision (scripted or defaulted) in ``decisions``.
    """

    def __init__(
        self,
        script: Sequence[int],
        choices: Sequence[float],
        decision_kinds: Tuple[MsgKind, ...] = DEFAULT_DECISION_KINDS,
    ) -> None:
        if not choices:
            raise VerificationError("need at least one delay choice")
        self.script = list(script)
        self.choices = list(choices)
        self.decision_kinds = tuple(decision_kinds)
        self.decisions: List[int] = []

    def propose_delay(self, envelope: Envelope, send_time: float) -> Optional[float]:
        if envelope.kind not in self.decision_kinds:
            return None
        position = len(self.decisions)
        choice = self.script[position] if position < len(self.script) else 0
        self.decisions.append(choice)
        return self.choices[choice]

    def describe(self) -> str:
        return f"Scripted({self.decisions})"


@dataclass
class ExplorationReport:
    """Result of exploring one configuration exhaustively."""

    paths: int
    decision_points_max: int
    violations: List[Tuple[List[int], List[str]]] = field(default_factory=list)
    truncated: bool = False

    @property
    def all_ok(self) -> bool:
        return not self.violations and not self.truncated

    def summary(self) -> str:
        status = "OK" if self.all_ok else (
            "TRUNCATED" if self.truncated and not self.violations else "VIOLATIONS"
        )
        return (
            f"{self.paths} schedules explored "
            f"(≤{self.decision_points_max} decision points): {status}"
        )


def explore(
    run_with_adversary: Callable[[Adversary], Any],
    check: Callable[[Any], List[str]],
    choices: Sequence[float],
    decision_kinds: Tuple[MsgKind, ...] = DEFAULT_DECISION_KINDS,
    max_paths: int = 4096,
) -> ExplorationReport:
    """Depth-first enumeration of all delay schedules.

    Parameters
    ----------
    run_with_adversary:
        Builds and runs a *fresh* instance with the given adversary and
        returns whatever ``check`` consumes (typically an outcome).
    check:
        Returns a list of violation descriptions (empty = clean).
    choices:
        Candidate delays for decision-point messages (clamped by the
        timing model, so e.g. ``1e18`` explores "as late as legal").
    max_paths:
        Abort (``truncated=True``) beyond this many schedules.
    """
    report = ExplorationReport(paths=0, decision_points_max=0)
    script: List[int] = []
    n_choices = len(choices)
    while True:
        adversary = ScriptedDelayAdversary(script, choices, decision_kinds)
        result = run_with_adversary(adversary)
        report.paths += 1
        report.decision_points_max = max(
            report.decision_points_max, len(adversary.decisions)
        )
        problems = check(result)
        if problems:
            report.violations.append((list(adversary.decisions), problems))
        if report.paths >= max_paths:
            # Is there anything left to explore?
            if any(d < n_choices - 1 for d in adversary.decisions):
                report.truncated = True
            break
        # Backtrack: advance the deepest decision that still has options.
        decisions = adversary.decisions
        i = len(decisions) - 1
        while i >= 0 and decisions[i] == n_choices - 1:
            i -= 1
        if i < 0:
            break
        script = decisions[:i] + [decisions[i] + 1]
    return report


def explore_payment(
    topology_factory: Callable[[], Any],
    protocol: str,
    timing_factory: Callable[[], Any],
    check: Callable[[Any], List[str]],
    choices: Sequence[float],
    seed: int = 0,
    protocol_options: Optional[Dict[str, Any]] = None,
    decision_kinds: Tuple[MsgKind, ...] = DEFAULT_DECISION_KINDS,
    max_paths: int = 4096,
    horizon: float = DEFAULT_HORIZON,
) -> ExplorationReport:
    """Exhaustively explore a payment configuration.

    Factories are invoked per path so each run starts from identical,
    independent state.
    """

    def run_once(adversary: Adversary) -> Any:
        session = PaymentSession(
            topology_factory(),
            protocol,
            timing_factory(),
            adversary=adversary,
            seed=seed,
            horizon=horizon,
            protocol_options=dict(protocol_options or {}),
        )
        return session.run()

    return explore(
        run_once, check, choices, decision_kinds=decision_kinds, max_paths=max_paths
    )


__all__ = [
    "DEFAULT_DECISION_KINDS",
    "ExplorationReport",
    "ScriptedDelayAdversary",
    "explore",
    "explore_payment",
]
