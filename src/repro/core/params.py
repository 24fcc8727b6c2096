"""Timeout-parameter calculus for the time-bounded protocol.

The paper presents the protocol of Theorem 1 with windows ``a_i`` (how
long escrow ``e_i`` waits for the certificate after issuing ``P(a_i)``)
and ``d_i`` (the bound in the guarantee ``G(d_i)``) as design
parameters, with "the precise values calculated in [the companion
paper]".  This module reconstructs that calculus from first principles
and exposes both the **drift-tuned** (sound) and **naive** (unsound —
what happens if you ignore clock drift, as the protocols of Thomas &
Schwartz and Herlihy et al. do) variants.

Derivation
----------
Let Δ bound message delay, ε bound grey-state processing, ρ bound clock
drift rate, and let all windows be measured on the owning escrow's
local clock.  Define ``H_i`` = the worst-case *real-time* gap between
escrow ``e_i`` issuing ``P(a_i)`` and the certificate χ arriving back
at ``e_i``, when every participant abides:

* ``H_{n-1} = 2Δ + ε``  (P to Bob, Bob computes, χ back), and
* ``H_i = H_{i+1} + 4Δ + 4ε``  (P to c_{i+1}, deposit to e_{i+1},
  e_{i+1} issues its own promise, χ returns via c_{i+1}), giving

  ``H_i = 2Δ + ε + (n-1-i)·(4Δ + 4ε)``  (:func:`h_from_hops`).

On a payment DAG the hop count ``n-1-i`` becomes the escrow's longest
remaining path to a sink (:func:`compute_graph_params`).

A local window ``a_i`` elapses in real time at least ``a_i / (1+ρ)``
(worst case: the escrow's clock runs maximally fast).  Soundness needs
the real window to cover ``H_i``::

    a_i = (1+ρ) · H_i + margin          (drift-tuned)
    a_i = H_i                            (naive — breaks under drift)

``d_i`` must cover, on ``e_i``'s own clock, its processing after the
money arrives (≤ ε real ≤ (1+ρ)ε local), the window ``a_i`` (already
local), and the processing before the refund/certificate send::

    d_i = a_i + 2·(1+ρ)·ε + margin      (drift-tuned)
    d_i = a_i + 2ε                       (naive)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from ..errors import ParameterError


@dataclass(frozen=True)
class TimingAssumptions:
    """The synchrony parameters (Δ, ε, ρ) the calculus relies on."""

    delta: float  # message-delay bound Δ, known under synchrony
    epsilon: float  # processing bound ε per grey state
    rho: float = 0.0  # clock-drift bound

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ParameterError(f"delta must be > 0, got {self.delta!r}")
        if self.epsilon < 0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not (0.0 <= self.rho < 1.0):
            raise ParameterError(f"rho must be in [0, 1), got {self.rho!r}")


def h_from_hops(hops_remaining: int, t: TimingAssumptions) -> float:
    """``H`` for an escrow with ``hops_remaining`` hops below it.

    On the path, escrow ``e_i`` has ``n-1-i`` hops between it and Bob;
    on a payment DAG the same recurrence applies with the *longest*
    remaining path to a sink (the slowest certificate to return).
    """
    if hops_remaining < 0:
        raise ParameterError(f"hops_remaining must be >= 0, got {hops_remaining}")
    return 2 * t.delta + t.epsilon + hops_remaining * (4 * t.delta + 4 * t.epsilon)


@dataclass(frozen=True)
class GraphTimeoutParams:
    """Per-escrow windows for a payment DAG, keyed by escrow name.

    Each escrow's windows follow the module calculus with its path
    index replaced by its longest remaining path to a sink; the
    Figure-1 path is the special case ``hops = n-1-i``.
    """

    assumptions: TimingAssumptions
    a: Dict[str, float]  # escrow name -> certificate window
    d: Dict[str, float]  # escrow name -> guarantee bound
    depth: int  # longest source-to-sink path, in hops
    drift_tuned: bool
    margin: float

    def a_of(self, escrow: str) -> float:
        return self.a[escrow]

    def d_of(self, escrow: str) -> float:
        return self.d[escrow]

    def global_termination_bound(self) -> float:
        """A-priori real-time bound by which *every* honest participant
        has terminated, assuming all escrows abide (property **T**).

        Conservative composition over the graph depth ``D``: the latest
        deposit (``D·(2Δ + 2ε)``, one promise/guarantee delivery,
        customer processing, money delivery and escrow processing per
        hop), plus the slowest escrow waiting out its largest window on
        a maximally *slow* clock (real duration ``a/(1-ρ)``), plus the
        refund/certificate cascade back up (``(D+1)·(2Δ + 2ε)``).
        """
        t = self.assumptions
        slowest_window = max(self.a.values()) / (1.0 - t.rho) if self.a else 0.0
        step = 2 * t.delta + 2 * t.epsilon
        return self.depth * step + t.epsilon + slowest_window + (
            self.depth + 1
        ) * step


def compute_graph_params(
    graph,
    assumptions: TimingAssumptions,
    drift_tuned: bool = True,
    margin: float = 0.0,
) -> GraphTimeoutParams:
    """Windows ``a``/``d`` for every escrow of a payment DAG.

    Each escrow's ``H`` uses its longest remaining path to a sink
    (:meth:`~repro.core.topology.PaymentGraph.depth_to_sink` of the
    hop's downstream customer), so every certificate — even the
    slowest sink's — can return inside the window.  On the Figure-1
    path escrow ``e_i`` has ``n-1-i`` hops to Bob, so its windows are
    the module docstring's ``a_i``/``d_i``.

    **Fan-in skew.**  The hops-to-sink recurrence assumes the sink's
    certificate is triggered by *this* escrow's own deposit cascade —
    true whenever every reachable sink has in-degree 1 (paths, trees,
    hubs).  A sink with several in-edges (the multi-source ``fan-in``
    shape, or any DAG merge) issues χ only once **all** its in-chains
    have promised, and sibling chains set up independently from
    protocol start: this escrow can be deposited almost immediately
    while the slowest sibling chain is still relaying
    guarantee → money → promise.  Each escrow therefore budgets the
    longest source-to-sink chain into any such shared sink as extra
    cascade hops (``skew``); with in-degree-1 sinks the skew is zero
    and the pre-DAG windows are reproduced bit-for-bit.

    Memoized by graph *shape* — the ``(escrow, hops-to-sink,
    fan-in-skew)`` table — rather than by the graph object, because
    campaign trials relabel the same shape under a fresh
    ``payment_id`` every run.  The cached instance is shared; treat
    its ``a``/``d`` maps as read-only.
    """
    if margin < 0:
        raise ParameterError(f"margin must be >= 0, got {margin!r}")
    shape = tuple(
        (
            edge.escrow,
            graph.depth_to_sink(edge.downstream),
            max(
                (
                    graph.depth_from_source(sink)
                    for sink in graph.reachable_sinks(edge.downstream)
                    if len(graph.in_edges(sink)) > 1
                ),
                default=0,
            ),
        )
        for edge in graph.edges
    )
    return _graph_params_for_shape(
        shape, graph.depth, assumptions, drift_tuned, margin
    )


@lru_cache(maxsize=256)
def _graph_params_for_shape(
    shape: Tuple[Tuple[str, int, int], ...],
    depth: int,
    assumptions: TimingAssumptions,
    drift_tuned: bool,
    margin: float,
) -> GraphTimeoutParams:
    t = assumptions
    inflation = (1.0 + t.rho) if drift_tuned else 1.0
    a: Dict[str, float] = {}
    d: Dict[str, float] = {}
    for escrow, hops, skew in shape:
        window = inflation * h_from_hops(hops + skew, t) + margin
        a[escrow] = window
        d[escrow] = window + 2.0 * inflation * t.epsilon + margin
    return GraphTimeoutParams(
        assumptions=t,
        a=a,
        d=d,
        depth=depth,
        drift_tuned=drift_tuned,
        margin=margin,
    )


__all__ = [
    "GraphTimeoutParams",
    "TimingAssumptions",
    "compute_graph_params",
    "h_from_hops",
]
