"""The shared Definition 1 / Definition 2 property checker.

This module turns a finished
:class:`~repro.core.outcomes.PaymentOutcome` into a *definition-level*
verdict, and :func:`check_outcome` is its one entry point, used by

* :mod:`repro.scenarios.trial` — every campaign and workload record
  reports ``def1_ok`` / ``def2_ok`` columns via :func:`property_columns`,
  so campaign tables show *where* the paper's success guarantees hold;
* the experiments E1–E5 and E9, which call it on each payment run;
* E8's :func:`~repro.verification.explorer.explore` check, which lists
  its violations.

Which definition applies is declared by the protocol class
(:attr:`~repro.protocols.base.PaymentProtocol.definition`): the
time-bounded and HTLC protocols promise Definition 1 (time-bounded
payment), the weak and certified protocols promise Definition 2
(guaranteed termination with commit / abort certificates).  The class
also declares which certificate kinds discharge Alice's security
clause CS1
(:attr:`~repro.protocols.base.PaymentProtocol.receipt_kinds`) — the
paper's χ for the time-bounded protocol, the revealed preimage for
HTLC, the commit certificate χc for Definition 2 protocols.

Definition 2's weak-liveness clause is a *conditional* guarantee: it
binds only when the customers' patience exceeded the network's actual
delays.  :func:`patience_is_sufficient` decides that precondition from
the timing envelope alone (conservatively — asynchrony never counts as
patient, since no finite patience survives an unbounded scheduler), so
the verdict is deterministic and needs no trace inspection.
"""

from __future__ import annotations

from math import inf
from typing import Any, Dict, Mapping, Optional, Sequence

from ..properties import CheckReport, check_definition1, check_definition2
from ..protocols.base import protocol_class

#: Decision round-trips a patient customer must be able to wait out on
#: top of the network's settling point (GST): "patient enough" means
#: ``patience > GST + 10 Δ``.
PATIENCE_ROUND_TRIPS = 10.0


def patience_is_sufficient(
    timing: Sequence[Any],
    protocol_options: Optional[Mapping[str, Any]] = None,
) -> bool:
    """Decide Definition 2's patience precondition from the envelope.

    ``timing`` is a primitive descriptor as carried by trial specs
    (see :func:`repro.experiments.harness.build_timing`).  A run counts
    as patient when the smaller of the protocol's patience values
    exceeds the time by which the network *must* have settled plus
    :data:`PATIENCE_ROUND_TRIPS` message bounds:

    * synchronous(Δ): patient iff patience > 10 Δ;
    * partial synchrony(GST, Δ): patient iff patience > GST + 10 Δ;
    * asynchronous: never patient — no finite patience outlasts an
      unbounded scheduler, so weak liveness is judged vacuous there.

    Protocols without patience options (nothing to run out of) count
    as patient.
    """
    options = dict(protocol_options or {})
    patience = min(
        options.get("patience_setup", inf),
        options.get("patience_decision", inf),
    )
    if patience == inf:
        return True
    kind = timing[0]
    params = dict(timing[1]) if len(timing) > 1 else {}
    if kind == "synchronous":
        # jitter is a fraction of the [min_delay, delta] window, so the
        # worst-case delay is delta itself whatever the jitter.
        delta = params.get("delta", 1.0)
        return patience > PATIENCE_ROUND_TRIPS * delta
    if kind == "partial":
        gst = params.get("gst", 0.0)
        delta = params.get("delta", 1.0)
        return patience > gst + PATIENCE_ROUND_TRIPS * delta
    return False  # asynchronous (or unknown): assume the worst


def check_outcome(
    outcome: Any,
    protocol: str,
    timing: Sequence[Any] = ("synchronous", {"delta": 1.0}),
    protocol_options: Optional[Mapping[str, Any]] = None,
    termination_bound: Optional[float] = None,
) -> CheckReport:
    """Check the outcome against *its protocol's* definition.

    Dispatches on the protocol class's declared ``definition``:
    Definition 1 protocols get
    :func:`~repro.properties.check_definition1` with the class's CS1
    ``receipt_kinds`` (and the optional a-priori
    ``termination_bound``); Definition 2 protocols get
    :func:`~repro.properties.check_definition2` with the patience
    precondition derived from ``timing`` and ``protocol_options``.
    """
    declared = protocol_class(protocol)
    if declared.definition == 1:
        return check_definition1(
            outcome,
            termination_bound=termination_bound,
            cert_kinds=declared.receipt_kinds,
        )
    return check_definition2(
        outcome,
        patient=patience_is_sufficient(timing, protocol_options),
        cert_kinds=declared.receipt_kinds,
    )


def property_columns(
    outcome: Any,
    protocol: str,
    timing: Sequence[Any],
    protocol_options: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The per-trial property columns campaign records carry.

    Returns ``definition`` (1 or 2), ``def1_ok`` / ``def2_ok`` (the
    applicable one a bool, the other ``None`` so aggregation can tell
    "checked and failed" from "not this protocol's contract"), and
    ``violated_properties`` (sorted property ids, empty when clean).
    """
    definition = protocol_class(protocol).definition
    report = check_outcome(
        outcome, protocol, timing=timing, protocol_options=protocol_options
    )
    ok = report.all_ok
    return {
        "definition": definition,
        "def1_ok": ok if definition == 1 else None,
        "def2_ok": ok if definition == 2 else None,
        "violated_properties": sorted(
            v.property_id.value for v in report.violations()
        ),
    }


__all__ = [
    "PATIENCE_ROUND_TRIPS",
    "check_outcome",
    "patience_is_sufficient",
    "property_columns",
]
