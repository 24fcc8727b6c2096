"""repro — reproduction of *Feasibility of Cross-Chain Payment with
Success Guarantees* (van Glabbeek, Gramoli, Tholoniat; SPAA 2020).

A discrete-event-simulation library implementing:

* the paper's model — escrows, customers, drifting clocks, and the
  three synchrony assumptions (synchrony / partial synchrony /
  asynchrony);
* the ANTA timed-automata formalism and the Figure 2 protocol
  (Theorem 1), with the drift-tuned timeout calculus;
* the weak-liveness protocol of Theorem 3 with pluggable transaction
  managers (trusted party, smart contract, BFT notary committee);
* baseline protocols (HTLC, certified-blockchain commit) and the
  cross-chain *deals* of Herlihy–Liskov–Shrira for the Section 5
  comparison;
* executable property checkers for C / T / ES / CS1–3 / L / CC, an
  adaptive adversary demonstrating Theorem 2, and a bounded exhaustive
  explorer for small instances.

Quickstart
----------
>>> import repro
>>> topo = repro.PaymentTopology.linear(3)
>>> session = repro.PaymentSession(topo, "timebounded", repro.Synchronous(1.0))
>>> outcome = session.run()
>>> outcome.bob_paid
True
"""

from ._version import __version__
from .clocks import DriftingClock, PERFECT_CLOCK, extremal_clock, random_clock
from .core.outcomes import PaymentOutcome
from .core.params import GraphTimeoutParams, TimingAssumptions, compute_graph_params
from .core.problem import (
    EVENTUALLY_TERMINATING_PAYMENT,
    PropertyId,
    TIME_BOUNDED_PAYMENT,
    WEAK_LIVENESS_PAYMENT,
)
from .core.session import PaymentEnv, PaymentSession
from .core.topology import PaymentTopology
from .ledger.asset import Amount, amount
from .net.timing import Asynchronous, PartialSynchrony, Synchronous
from .sim.kernel import Simulator

__all__ = [
    "Amount",
    "Asynchronous",
    "DriftingClock",
    "EVENTUALLY_TERMINATING_PAYMENT",
    "GraphTimeoutParams",
    "PERFECT_CLOCK",
    "PartialSynchrony",
    "PaymentEnv",
    "PaymentOutcome",
    "PaymentSession",
    "PaymentTopology",
    "PropertyId",
    "Simulator",
    "Synchronous",
    "TIME_BOUNDED_PAYMENT",
    "TimingAssumptions",
    "WEAK_LIVENESS_PAYMENT",
    "amount",
    "compute_graph_params",
    "extremal_clock",
    "random_clock",
    "__version__",
]
