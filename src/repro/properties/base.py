"""Property-checking framework.

A :class:`PropertyChecker` evaluates one property of Definition 1/2
against a finished :class:`~repro.core.outcomes.PaymentOutcome` and
returns a :class:`Verdict`.  Verdicts are three-valued:

* ``HOLDS`` — the property's guarantee was delivered;
* ``VIOLATED`` — the guarantee failed while its *preconditions* held;
* ``VACUOUS`` — the preconditions did not hold (e.g. CS1 when Alice's
  escrow is Byzantine), so the property demands nothing of this run.

Distinguishing VACUOUS from HOLDS matters: the paper's customer-security
clauses are *conditional* guarantees, and several experiments (E4's
Byzantine sweeps) exist precisely to show the conditions doing their
job.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..core.outcomes import PaymentOutcome
from ..core.problem import PropertyId


class Status(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class Verdict:
    """Result of checking one property on one outcome."""

    property_id: PropertyId
    status: Status
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True unless the property was outright violated."""
        return self.status is not Status.VIOLATED

    def __repr__(self) -> str:
        msg = f" ({self.detail})" if self.detail else ""
        return f"{self.property_id.value}: {self.status.value}{msg}"


def holds(prop: PropertyId, detail: str = "") -> Verdict:
    return Verdict(prop, Status.HOLDS, detail)


def violated(prop: PropertyId, detail: str = "") -> Verdict:
    return Verdict(prop, Status.VIOLATED, detail)


def vacuous(prop: PropertyId, detail: str = "") -> Verdict:
    return Verdict(prop, Status.VACUOUS, detail)


class PropertyChecker(ABC):
    """One checkable property."""

    property_id: PropertyId

    @abstractmethod
    def check(self, outcome: PaymentOutcome) -> Verdict:
        """Evaluate against a finished run."""


@dataclass
class CheckReport:
    """Verdicts for a suite of properties on one outcome."""

    verdicts: List[Verdict] = field(default_factory=list)

    def add(self, verdict: Verdict) -> None:
        self.verdicts.append(verdict)

    def violations(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status is Status.VIOLATED]

    @property
    def all_ok(self) -> bool:
        """No property was violated."""
        return not self.violations()

    def status_of(self, prop: PropertyId) -> Optional[Status]:
        for v in self.verdicts:
            if v.property_id is prop:
                return v.status
        return None

    def summary(self) -> str:
        """One line per verdict."""
        return "\n".join(repr(v) for v in self.verdicts)


__all__ = [
    "CheckReport",
    "PropertyChecker",
    "Status",
    "Verdict",
    "holds",
    "vacuous",
    "violated",
]
