"""Property suites: check a whole problem definition at once.

:func:`check_definition1` / :func:`check_definition2` assemble the
paper's property lists (Definitions 1 and 2) and evaluate them against
an outcome, returning a :class:`~repro.properties.base.CheckReport`.

Property **C** (consistency — "for each participant it is possible to
abide") is not a trace predicate: it is evidenced by construction, i.e.
by honest runs in which every participant followed its automaton to a
final state.  :func:`consistency_verdict` encodes that reading: C holds
for a run iff every honest participant completed its prescribed
behaviour without being wedged by the protocol itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.outcomes import PaymentOutcome
from ..core.problem import PropertyId
from .base import CheckReport, Verdict, holds, vacuous, violated
from .liveness import (
    EventualTermination,
    StrongLiveness,
    TimeBoundedTermination,
    WeakLiveness,
)
from .safety import (
    AliceSecurity,
    BobSecurity,
    CertificateConsistency,
    ConnectorSecurity,
    EscrowSecurity,
)


def consistency_verdict(outcome: PaymentOutcome) -> Verdict:
    """**C** — every honest participant could abide.

    Evidence reading: in an all-honest run, the protocol must not wedge
    anyone — every participant terminates.  In runs with Byzantine
    parties, honest participants may legitimately wait forever (an
    escrow whose customer never deposits), so C is judged vacuous.
    """
    if not all(outcome.honest.values()):
        return vacuous(PropertyId.C, "Byzantine run: abidance not total")
    if outcome.all_participants_terminated():
        return holds(PropertyId.C, "all participants completed their role")
    stuck = [
        name
        for name in outcome.topology.participants()
        if not outcome.terminated(name)
    ]
    return violated(PropertyId.C, f"protocol wedged honest participants: {stuck}")


def check_definition1(
    outcome: PaymentOutcome,
    termination_bound: Optional[float] = None,
    cert_kinds: Sequence[str] = ("chi",),
) -> CheckReport:
    """Check Definition 1 (time-bounded cross-chain payment).

    Parameters
    ----------
    outcome:
        A finished run.
    termination_bound:
        A-priori bound for the T check; omit to check the *eventually
        terminating* variant instead.
    cert_kinds:
        Certificate kinds that satisfy CS1 — the paper's χ by default;
        protocols with a different receipt (HTLC's revealed preimage)
        pass their own (see
        :attr:`repro.protocols.base.PaymentProtocol.receipt_kinds`).
    """
    report = CheckReport()
    report.add(consistency_verdict(outcome))
    if termination_bound is not None:
        report.add(TimeBoundedTermination(termination_bound).check(outcome))
    else:
        report.add(EventualTermination().check(outcome))
    report.add(EscrowSecurity().check(outcome))
    report.add(AliceSecurity(cert_kinds=tuple(cert_kinds)).check(outcome))
    report.add(BobSecurity(weak_variant=False).check(outcome))
    report.add(ConnectorSecurity().check(outcome))
    report.add(StrongLiveness().check(outcome))
    return report


def check_definition2(
    outcome: PaymentOutcome,
    patient: bool = True,
    cert_kinds: Sequence[str] = ("commit",),
) -> CheckReport:
    """Check Definition 2 (weak liveness guarantees).

    Parameters
    ----------
    outcome:
        A finished run.
    patient:
        Whether this run's patience exceeded actual delays (feeds the
        weak-liveness precondition).
    cert_kinds:
        Certificate kinds that satisfy CS1 — the commit certificate χc
        by default.
    """
    report = CheckReport()
    report.add(consistency_verdict(outcome))
    report.add(CertificateConsistency().check(outcome))
    report.add(EventualTermination().check(outcome))
    report.add(EscrowSecurity().check(outcome))
    report.add(AliceSecurity(cert_kinds=tuple(cert_kinds)).check(outcome))
    report.add(BobSecurity(weak_variant=True).check(outcome))
    report.add(ConnectorSecurity().check(outcome))
    report.add(WeakLiveness(patient=patient).check(outcome))
    return report


__all__ = ["check_definition1", "check_definition2", "consistency_verdict"]
