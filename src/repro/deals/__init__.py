"""Cross-chain deals (Herlihy–Liskov–Shrira) and the Section 5
comparison with cross-chain payments."""

from .certified import build_certified_deal
from .common import DealEnv, DealOutcome, DealSession, arc_escrow_name
from .matrix import DealMatrix
from .payoff import acceptable, classify, deal_position, dominates
from .reduction import (
    all_abort_acceptable_for_deal,
    deal_as_payment,
    payment_as_deal,
    separation_report,
)
from .timelock import build_timelock_deal

__all__ = [
    "DealEnv",
    "DealMatrix",
    "DealOutcome",
    "DealSession",
    "acceptable",
    "all_abort_acceptable_for_deal",
    "arc_escrow_name",
    "build_certified_deal",
    "build_timelock_deal",
    "classify",
    "deal_as_payment",
    "deal_position",
    "dominates",
    "payment_as_deal",
    "separation_report",
]
