"""Separation witnesses: payments are not deals, deals are not payments.

The paper's Section 5 closes with: "we show that the cross-chain
payment cannot be seen as a special kind of cross-chain deal, nor vice
versa."  This module makes both directions *executable*:

Payment ↛ Deal
    The natural deal encoding of a payment (the path digraph of
    Figure 1) is **not well-formed** — the money flows one way, so the
    digraph is not strongly connected, and [3]'s protocols (and their
    correctness proofs) do not apply.  Moreover the deal specification
    *permits the trivial all-abort protocol* (every party keeps her
    assets: a NOTHING payoff is acceptable and termination holds),
    whereas the payment specification forbids it: strong liveness (L)
    requires Bob to be paid in all-honest runs, and CS1 demands a
    certificate when Alice's money moves.

Deal ↛ Payment
    A payment has one source (Alice) and one sink (Bob) of value along
    a path, with every intermediary flow-neutral-or-better.  A cyclic
    swap deal gives *every* party both an in-arc and an out-arc; no
    assignment of deal parties to the path roles of Figure 1 preserves
    the transfer structure.  :func:`deal_as_payment` attempts the
    extraction and provably fails on cycles.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.topology import PaymentTopology
from .matrix import DealMatrix


def payment_as_deal(topology: PaymentTopology) -> DealMatrix:
    """Encode a payment's transfer structure as a deal matrix.

    Parties are the customers ``c_0 … c_n``; arc ``(i, i+1)`` carries
    ``amounts[i]`` (the value through escrow ``e_i``).
    """
    arcs = {
        (i, i + 1): topology.amount_at(i) for i in range(topology.n_escrows)
    }
    return DealMatrix.from_dict(topology.customers(), arcs)


def all_abort_acceptable_for_deal(matrix: DealMatrix) -> bool:
    """Whether the all-abort outcome satisfies the deal Safety notion.

    Trivially ``True``: every party ends in the NOTHING position, which
    is acceptable.  The payment problem explicitly forbids this
    protocol (it violates strong liveness L, and the paper calls the
    exclusion out in the introduction).
    """
    from .payoff import acceptable

    return all(acceptable(matrix, p, {}) for p in range(matrix.n_parties))


def deal_as_payment(matrix: DealMatrix) -> Optional[PaymentTopology]:
    """Try to express a deal as a cross-chain payment path.

    Succeeds only when the transfer structure *is* a path: exactly one
    party with out-degree 1 / in-degree 0 (Alice), one with in-degree 1
    / out-degree 0 (Bob), every other party with in-degree = out-degree
    = 1, and the arcs forming a single simple chain.  Returns ``None``
    otherwise — in particular for every well-formed (strongly
    connected) deal with ≥ 2 parties, since those have no source.
    """
    k = matrix.n_parties
    out_deg = {p: len(matrix.out_arcs(p)) for p in range(k)}
    in_deg = {p: len(matrix.in_arcs(p)) for p in range(k)}
    sources = [p for p in range(k) if out_deg[p] == 1 and in_deg[p] == 0]
    sinks = [p for p in range(k) if in_deg[p] == 1 and out_deg[p] == 0]
    middles = [p for p in range(k) if in_deg[p] == 1 and out_deg[p] == 1]
    if len(sources) != 1 or len(sinks) != 1 or len(middles) != k - 2:
        return None
    # Walk the chain from the source and check it visits everyone:
    order = [sources[0]]
    amounts = []
    while True:
        outs = matrix.out_arcs(order[-1])
        if not outs:
            break
        nxt, amount = outs[0]
        if nxt in order:
            return None  # a cycle, not a path
        order.append(nxt)
        amounts.append(amount)
    if len(order) != k or order[-1] != sinks[0]:
        return None
    return PaymentTopology(
        n_escrows=len(amounts), amounts=tuple(amounts), payment_id="from-deal"
    )


def separation_report() -> Dict[str, object]:
    """Run both separation witnesses and return the evidence."""
    payment = PaymentTopology.linear(3)
    as_deal = payment_as_deal(payment)
    cycle = DealMatrix.cycle(["p0", "p1", "p2"])
    return {
        "payment_path_well_formed_as_deal": as_deal.is_well_formed(),  # False
        "all_abort_acceptable_for_deals": all_abort_acceptable_for_deal(cycle),  # True
        "cyclic_deal_expressible_as_payment": deal_as_payment(cycle) is not None,  # False
        "path_deal_expressible_as_payment": deal_as_payment(as_deal) is not None,  # True
    }


__all__ = [
    "all_abort_acceptable_for_deal",
    "deal_as_payment",
    "payment_as_deal",
    "separation_report",
]
