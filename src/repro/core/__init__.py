"""The paper's core: problem definitions, topology, timeout calculus,
sessions, and outcomes."""

from .outcomes import AssetDelta, BalanceSnapshot, PaymentOutcome, snapshot_balances
from .params import GraphTimeoutParams, TimingAssumptions, compute_graph_params
from .problem import (
    ALL_SPECS,
    EVENTUALLY_TERMINATING_PAYMENT,
    PROPERTY_STATEMENTS,
    ProblemSpec,
    PropertyId,
    SynchronyAssumption,
    TIME_BOUNDED_PAYMENT,
    WEAK_LIVENESS_PAYMENT,
)
from .session import PaymentEnv, PaymentSession
from .topology import PaymentTopology

__all__ = [
    "ALL_SPECS",
    "AssetDelta",
    "BalanceSnapshot",
    "EVENTUALLY_TERMINATING_PAYMENT",
    "GraphTimeoutParams",
    "PROPERTY_STATEMENTS",
    "PaymentEnv",
    "PaymentOutcome",
    "PaymentSession",
    "PaymentTopology",
    "ProblemSpec",
    "PropertyId",
    "SynchronyAssumption",
    "TIME_BOUNDED_PAYMENT",
    "TimingAssumptions",
    "WEAK_LIVENESS_PAYMENT",
    "compute_graph_params",
    "snapshot_balances",
]
