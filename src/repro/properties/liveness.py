"""Liveness and termination properties: T (both variants), L (both).

Termination checks are conditional exactly as the paper phrases them:
for a customer the guarantee applies only when *her escrows* abide.
The time-bounded variant additionally requires an *a priori* bound,
supplied by the caller (typically
:meth:`repro.core.params.GraphTimeoutParams.global_termination_bound`).
"""

from __future__ import annotations

from ..core.outcomes import PaymentOutcome
from ..core.problem import PropertyId
from .base import PropertyChecker, Verdict, holds, vacuous, violated


def _customer_escrows_honest(outcome: PaymentOutcome, name: str) -> bool:
    topo = outcome.topology
    return all(
        outcome.is_honest(e) for e in topo.escrows_of_customer(name)
    )


def _customer_acted(outcome: PaymentOutcome, name: str) -> bool:
    """The paper's T qualifier: the customer "either makes a payment or
    issues a certificate".

    Approximation over observables: her money moved (position changed at
    some point — a refunded-and-terminated customer also acted), or she
    terminated (completed her role), or she is Bob and issued χ.  A
    customer who never got the chance to act (her counterparties stalled
    before she moved money) is outside the guarantee.
    """
    topo = outcome.topology
    return (
        not outcome.refunded(name)
        or outcome.terminated(name)
        or (name in topo.sinks() and outcome.chi_issued(by=name))
    )


class EventualTermination(PropertyChecker):
    """**T (eventual)** — each honest customer whose escrows abide, and
    who makes a payment or issues a certificate, terminates eventually.

    "Eventually" is judged against the simulation: the run must have
    drained (no events pending — checked by the caller supplying a
    sufficiently large horizon) with the customer terminated.
    """

    property_id = PropertyId.T_EVENTUAL

    def check(self, outcome: PaymentOutcome) -> Verdict:
        topo = outcome.topology
        applicable = []
        for name in topo.customers():
            if not outcome.is_honest(name):
                continue
            if not _customer_escrows_honest(outcome, name):
                continue
            if not _customer_acted(outcome, name):
                continue
            applicable.append(name)
        if not applicable:
            return vacuous(self.property_id, "no applicable customer")
        stuck = [n for n in applicable if not outcome.terminated(n)]
        if stuck:
            return violated(self.property_id, f"never terminated: {stuck}")
        return holds(self.property_id, f"{len(applicable)} customers terminated")


class TimeBoundedTermination(PropertyChecker):
    """**T (time-bounded)** — as above, but within an a-priori bound.

    The paper's clause restricts the guarantee to customers that "either
    make a payment or issue a certificate"; customers that never act
    (e.g. Alice when her escrow is silent) are exempt.  We approximate
    "acted" as: deposited money, issued χ, or received a promise that
    obliged them to act.
    """

    property_id = PropertyId.T_BOUNDED

    def __init__(self, bound: float) -> None:
        if bound <= 0:
            raise ValueError("termination bound must be positive")
        self.bound = float(bound)

    def check(self, outcome: PaymentOutcome) -> Verdict:
        topo = outcome.topology
        applicable = []
        for name in topo.customers():
            if not outcome.is_honest(name):
                continue
            if not _customer_escrows_honest(outcome, name):
                continue
            if _customer_acted(outcome, name):
                applicable.append(name)
        if not applicable:
            return vacuous(self.property_id, "no applicable customer")
        late = []
        for name in applicable:
            t = outcome.termination_times.get(name)
            if t is None or t > self.bound:
                late.append((name, t))
        if late:
            return violated(
                self.property_id,
                f"beyond bound {self.bound:.3g}: {late}",
            )
        return holds(
            self.property_id,
            f"{len(applicable)} customers within {self.bound:.3g}",
        )


class StrongLiveness(PropertyChecker):
    """**L (strong)** — if all parties abide, every recipient (each
    graph sink — Bob on the path) is paid eventually."""

    property_id = PropertyId.L_STRONG

    def check(self, outcome: PaymentOutcome) -> Verdict:
        if not all(outcome.honest.values()):
            return vacuous(self.property_id, "some party is Byzantine")
        if outcome.bob_paid:
            return holds(self.property_id, "every recipient paid")
        return violated(self.property_id, "all abided yet a recipient unpaid")


class WeakLiveness(PropertyChecker):
    """**L (weak)** — if all parties abide *and customers wait long
    enough before and after sending money*, Bob is eventually paid.

    The patience precondition is run metadata: the caller states whether
    this run's patience values exceeded the actual delays
    (``patient=True``).  Impatient runs are VACUOUS — aborting is
    allowed; losing money is not (that is CS1–CS3's job)."""

    property_id = PropertyId.L_WEAK

    def __init__(self, patient: bool = True) -> None:
        self.patient = patient

    def check(self, outcome: PaymentOutcome) -> Verdict:
        if not all(outcome.honest.values()):
            return vacuous(self.property_id, "some party is Byzantine")
        if not self.patient:
            return vacuous(self.property_id, "customers were not patient enough")
        if outcome.bob_paid:
            return holds(self.property_id, "every recipient paid")
        return violated(
            self.property_id, "patient honest run yet a recipient unpaid"
        )


__all__ = [
    "EventualTermination",
    "StrongLiveness",
    "TimeBoundedTermination",
    "WeakLiveness",
]
