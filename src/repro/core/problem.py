"""Definitions 1 and 2 as first-class specification objects.

A :class:`ProblemSpec` names the properties a protocol must satisfy and
under which synchrony assumption the paper proves it solvable.  The
experiment harness and the property checker consume these specs so
tables can say "protocol X under model Y satisfies spec Z".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple


class PropertyId(str, Enum):
    """All correctness properties appearing in the paper."""

    C = "C"  # consistency: every participant can abide
    T_BOUNDED = "T-bounded"  # time-bounded termination
    T_EVENTUAL = "T-eventual"  # eventual termination
    ES = "ES"  # escrow security
    CS1 = "CS1"  # Alice's security
    CS2 = "CS2"  # Bob's security
    CS3 = "CS3"  # connectors' security
    L_STRONG = "L-strong"  # strong liveness
    L_WEAK = "L-weak"  # weak liveness
    CC = "CC"  # certificate consistency


PROPERTY_STATEMENTS: Dict[PropertyId, str] = {
    PropertyId.C: (
        "For each participant in the protocol it is possible to abide by "
        "the protocol."
    ),
    PropertyId.T_BOUNDED: (
        "Each customer that abides by the protocol, and either makes a "
        "payment or issues a certificate, terminates within an a priori "
        "known period, provided her escrows abide by the protocol."
    ),
    PropertyId.T_EVENTUAL: (
        "Each customer that abides by the protocol terminates eventually, "
        "provided her escrows abide by the protocol."
    ),
    PropertyId.ES: "Each escrow that abides by the protocol does not lose money.",
    PropertyId.CS1: (
        "Upon termination, if Alice and her escrow abide by the protocol, "
        "Alice has either got her money back or received the certificate."
    ),
    PropertyId.CS2: (
        "Upon termination, if Bob and his escrow abide by the protocol, Bob "
        "has either received the money or not issued the certificate (weak "
        "variant: or holds the abort certificate)."
    ),
    PropertyId.CS3: (
        "Upon termination, each connector that abides by the protocol has "
        "got her money back, provided her escrows abide by the protocol."
    ),
    PropertyId.L_STRONG: (
        "If all parties abide by the protocol, Bob is paid eventually."
    ),
    PropertyId.L_WEAK: (
        "If all parties abide by the protocol and the customers wait "
        "sufficiently long before and after sending money, then Bob is "
        "eventually paid."
    ),
    PropertyId.CC: (
        "An abort and a commit certificate can never be issued both."
    ),
}


class SynchronyAssumption(str, Enum):
    """Communication models the paper distinguishes."""

    SYNCHRONOUS = "synchronous"
    PARTIALLY_SYNCHRONOUS = "partially-synchronous"
    ASYNCHRONOUS = "asynchronous"


@dataclass(frozen=True)
class ProblemSpec:
    """A named problem variant: its required properties and status."""

    name: str
    properties: Tuple[PropertyId, ...]
    solvable_under: Tuple[SynchronyAssumption, ...]
    unsolvable_under: Tuple[SynchronyAssumption, ...]
    theorem: str

    def requires(self, prop: PropertyId) -> bool:
        return prop in self.properties

    def describe(self) -> str:
        """Multi-line description for documentation output."""
        lines = [f"{self.name} ({self.theorem})"]
        for prop in self.properties:
            lines.append(f"  {prop.value}: {PROPERTY_STATEMENTS[prop]}")
        return "\n".join(lines)


#: Definition 1 (time-bounded variant) — solvable under synchrony (Thm 1).
TIME_BOUNDED_PAYMENT = ProblemSpec(
    name="time-bounded cross-chain payment",
    properties=(
        PropertyId.C,
        PropertyId.T_BOUNDED,
        PropertyId.ES,
        PropertyId.CS1,
        PropertyId.CS2,
        PropertyId.CS3,
        PropertyId.L_STRONG,
    ),
    solvable_under=(SynchronyAssumption.SYNCHRONOUS,),
    unsolvable_under=(
        SynchronyAssumption.PARTIALLY_SYNCHRONOUS,
        SynchronyAssumption.ASYNCHRONOUS,
    ),
    theorem="Theorem 1 / Theorem 2",
)

#: Definition 1 (eventually terminating variant) — still impossible under
#: partial synchrony (Thm 2 covers the relaxation too).
EVENTUALLY_TERMINATING_PAYMENT = ProblemSpec(
    name="eventually terminating cross-chain payment",
    properties=(
        PropertyId.C,
        PropertyId.T_EVENTUAL,
        PropertyId.ES,
        PropertyId.CS1,
        PropertyId.CS2,
        PropertyId.CS3,
        PropertyId.L_STRONG,
    ),
    solvable_under=(SynchronyAssumption.SYNCHRONOUS,),
    unsolvable_under=(
        SynchronyAssumption.PARTIALLY_SYNCHRONOUS,
        SynchronyAssumption.ASYNCHRONOUS,
    ),
    theorem="Theorem 2",
)

#: Definition 2 — solvable under partial synchrony (Thm 3).
WEAK_LIVENESS_PAYMENT = ProblemSpec(
    name="cross-chain payment with weak liveness guarantees",
    properties=(
        PropertyId.C,
        PropertyId.CC,
        PropertyId.T_EVENTUAL,
        PropertyId.ES,
        PropertyId.CS1,
        PropertyId.CS2,
        PropertyId.CS3,
        PropertyId.L_WEAK,
    ),
    solvable_under=(
        SynchronyAssumption.SYNCHRONOUS,
        SynchronyAssumption.PARTIALLY_SYNCHRONOUS,
    ),
    unsolvable_under=(),
    theorem="Theorem 3",
)


ALL_SPECS: List[ProblemSpec] = [
    TIME_BOUNDED_PAYMENT,
    EVENTUALLY_TERMINATING_PAYMENT,
    WEAK_LIVENESS_PAYMENT,
]


__all__ = [
    "ALL_SPECS",
    "EVENTUALLY_TERMINATING_PAYMENT",
    "PROPERTY_STATEMENTS",
    "ProblemSpec",
    "PropertyId",
    "SynchronyAssumption",
    "TIME_BOUNDED_PAYMENT",
    "WEAK_LIVENESS_PAYMENT",
]
