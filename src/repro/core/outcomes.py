"""Outcome records: everything a finished payment run exposes.

A :class:`PaymentOutcome` is the single artefact property checkers and
experiment tables consume.  It is computed from the simulation trace
plus the final ledger state, relying on the **trace discipline** shared
by all protocols in this library:

* participants record ``CERT_ISSUED`` when they create a certificate
  (Bob's χ; a TM's commit/abort) and ``CERT_RECEIVED`` only after
  *verifying* a received certificate;
* ledgers record every transfer and escrow transition;
* processes record ``TERMINATE`` exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ..ledger.ledger import Ledger
from ..sim.trace import TraceKind, TraceRecorder
from .topology import PaymentGraph

#: Per-asset integer deltas, e.g. ``{"X": +3}``; zero entries omitted.
AssetDelta = Dict[str, int]

#: Balances snapshot: escrow -> customer -> asset -> units.
BalanceSnapshot = Dict[str, Dict[str, Dict[str, int]]]


def snapshot_balances(
    ledgers: Dict[str, Ledger], topology: PaymentGraph
) -> BalanceSnapshot:
    """Capture every customer balance at every escrow."""
    snap: BalanceSnapshot = {}
    assets = topology.assets
    for edge in topology.edges:
        escrow = edge.escrow
        ledger = ledgers[escrow]
        snap[escrow] = {}
        for customer in (edge.upstream, edge.downstream):
            if not ledger.has_account(customer):
                continue
            balances = {
                asset: ledger.balance(customer, asset).units for asset in assets
            }
            snap[escrow][customer] = {a: u for a, u in balances.items() if u != 0}
    return snap


def _totals(snapshot: BalanceSnapshot, customer: str) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for accounts in snapshot.values():
        for asset, units in accounts.get(customer, {}).items():
            totals[asset] = totals.get(asset, 0) + units
    return totals


@dataclass
class PaymentOutcome:
    """The observable result of one payment session."""

    payment_id: str
    protocol: str
    topology: PaymentGraph
    honest: Dict[str, bool]
    initial_balances: BalanceSnapshot
    final_balances: BalanceSnapshot
    ledger_audits: Dict[str, bool]
    termination_times: Dict[str, Optional[float]]
    certificates_issued: List[Dict[str, Any]]
    certificates_received: Dict[str, Set[str]]
    end_time: float
    messages_sent: int
    messages_delivered: int
    events_executed: int
    trace: TraceRecorder

    # -- construction -------------------------------------------------------

    @classmethod
    def collect(
        cls,
        *,
        payment_id: str,
        protocol: str,
        topology: PaymentGraph,
        honest: Dict[str, bool],
        initial_balances: BalanceSnapshot,
        ledgers: Dict[str, Ledger],
        trace: TraceRecorder,
        end_time: float,
        messages_sent: int,
        messages_delivered: int,
        events_executed: int,
    ) -> "PaymentOutcome":
        """Assemble an outcome from a finished session's parts."""
        issued = [
            {"actor": e.actor, "cert": e.get("cert"), "time": e.time, **e.data}
            for e in trace.events(kind=TraceKind.CERT_ISSUED)
        ]
        received: Dict[str, Set[str]] = {}
        for e in trace.events(kind=TraceKind.CERT_RECEIVED):
            received.setdefault(e.actor, set()).add(str(e.get("cert")))
        termination = {
            name: trace.termination_time(name) for name in topology.participants()
        }
        return cls(
            payment_id=payment_id,
            protocol=protocol,
            topology=topology,
            honest=dict(honest),
            initial_balances=initial_balances,
            final_balances=snapshot_balances(ledgers, topology),
            ledger_audits={name: ledger.audit_ok() for name, ledger in ledgers.items()},
            termination_times=termination,
            certificates_issued=issued,
            certificates_received=received,
            end_time=end_time,
            messages_sent=messages_sent,
            messages_delivered=messages_delivered,
            events_executed=events_executed,
            trace=trace,
        )

    # -- positions ---------------------------------------------------------------

    def position_delta(self, customer: str) -> AssetDelta:
        """Net balance change of ``customer`` summed over all escrows."""
        before = _totals(self.initial_balances, customer)
        after = _totals(self.final_balances, customer)
        delta: AssetDelta = {}
        for asset in set(before) | set(after):
            diff = after.get(asset, 0) - before.get(asset, 0)
            if diff != 0:
                delta[asset] = diff
        return delta

    def expected_success_delta(self, customer) -> AssetDelta:
        """The position change a completed payment gives a customer.

        She gains each incoming hop's amount and pays each outgoing
        hop's amount (a connector's commission being the difference,
        possibly across assets).  On the path this is the historical
        reading: Alice pays ``amounts[0]``, Bob gains ``amounts[n-1]``,
        connector ``c_i`` nets ``amounts[i-1] - amounts[i]``.  Accepts
        a name or a (path-era) customer index.
        """
        topo = self.topology
        name = topo.customer(customer) if isinstance(customer, int) else customer
        delta: AssetDelta = {}
        for edge in topo.in_edges(name):
            delta[edge.amount.asset] = (
                delta.get(edge.amount.asset, 0) + edge.amount.units
            )
        for edge in topo.out_edges(name):
            delta[edge.amount.asset] = (
                delta.get(edge.amount.asset, 0) - edge.amount.units
            )
        return {a: u for a, u in delta.items() if u != 0}

    def refunded(self, customer: str) -> bool:
        """Whether the customer ended exactly where she started."""
        return self.position_delta(customer) == {}

    def in_success_position(self, customer: str) -> bool:
        """Whether the customer holds the completed-payment position."""
        return self.position_delta(customer) == self.expected_success_delta(
            customer
        )

    @property
    def bob_paid(self) -> bool:
        """Did every recipient (each graph sink) receive their amount?"""
        return all(
            self.in_success_position(sink) for sink in self.topology.sinks()
        )

    # -- certificates -----------------------------------------------------------------

    def chi_issued(self, by: Optional[str] = None) -> bool:
        """Did a recipient sign χ at any point?

        ``by`` restricts the question to one sink; by default any
        sink's χ counts (on the path: did Bob sign).
        """
        issuers = (by,) if by is not None else tuple(self.topology.sinks())
        return any(
            c["cert"] == "chi" and c["actor"] in issuers
            for c in self.certificates_issued
        )

    def decision_kinds_issued(self) -> Set[str]:
        """Decision certificate kinds ('commit'/'abort') observed as
        issued *or* accepted as valid by any participant."""
        kinds = {
            str(c["cert"])
            for c in self.certificates_issued
            if c["cert"] in ("commit", "abort")
        }
        for certs in self.certificates_received.values():
            kinds |= certs & {"commit", "abort"}
        return kinds

    def holds_certificate(self, customer: str, kind: str) -> bool:
        """Whether ``customer`` verified and recorded a certificate."""
        return kind in self.certificates_received.get(customer, set())

    # -- participants ----------------------------------------------------------------

    def is_honest(self, name: str) -> bool:
        return self.honest.get(name, True)

    def terminated(self, name: str) -> bool:
        return self.termination_times.get(name) is not None

    def all_participants_terminated(self) -> bool:
        return all(
            self.terminated(name) for name in self.topology.participants()
        )

    def summary(self) -> Dict[str, Any]:
        """Compact dict for experiment tables."""
        return {
            "protocol": self.protocol,
            "bob_paid": self.bob_paid,
            "chi_issued": self.chi_issued(),
            "decisions": sorted(self.decision_kinds_issued()),
            "all_terminated": self.all_participants_terminated(),
            "end_time": self.end_time,
            "messages": self.messages_sent,
        }


__all__ = ["AssetDelta", "BalanceSnapshot", "PaymentOutcome", "snapshot_balances"]
