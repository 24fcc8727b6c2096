"""Assembly of the time-bounded protocol (Theorem 1).

Creates one :class:`~repro.anta.automaton.TimedAutomaton` per
participant from the Figure 2 specs, computes the timeout windows
``a`` / ``d`` with the drift-tuned calculus (or the naive one, for
the E2 ablation), applies Byzantine spec transforms where the session
asks for them, and registers everything with the network.

The build is **graph-driven**: escrows are created per hop edge and
customers per graph node, with each node's role read off its in/out
degree.  Degree-one nodes get the exact Figure 2 role specs (Alice /
Chloe / Bob), so path topologies behave byte-identically to the
pre-graph implementation; nodes with fan-in/fan-out (a tree's
branching Alice, a hub's fanning connector) get the counting fan-out
specs of :mod:`.customer`.  Windows come from the per-escrow graph
calculus (:func:`repro.core.params.compute_graph_params`), whose
hops-to-sink recurrence is the paper's ``a_i``/``d_i`` on a path.

Options (``protocol_options`` of the session)
---------------------------------------------
``delta``:
    Message-delay bound Δ fed to the calculus.  Defaults to the timing
    model's ``known_bound``; **required** when the model publishes none
    (running this protocol under partial synchrony — exactly what
    Theorem 2 says cannot work — forces you to *assume* some Δ).
``epsilon``:
    Processing bound ε (default ``0.05``); also used as the automata's
    actual grey-state processing bound unless ``processing_bound``
    overrides it.
``rho``:
    Drift bound fed to the calculus; defaults to the session's clock
    sampling bound, so by default the calculus matches reality.
``drift_tuned``:
    ``True`` (default) = the paper's fine-tuned windows;
    ``False`` = the naive windows of the prior work.
``margin``:
    Extra slack added to every window.
``processing_floor``:
    Lower bound on grey-state processing (set equal to ``epsilon`` for
    deterministic worst-case processing in boundary experiments).
``no_timeout``:
    Strip the escrows' refund timeouts — the "wait forever" end of the
    protocol family that Theorem 2's impossibility argument quantifies
    over (experiment E3's second horn).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple, Union

from ...anta.automaton import TimedAutomaton
from ...anta.transitions import AutomatonSpec
from ...byzantine.behaviors import apply_behavior
from ...core.params import TimingAssumptions, compute_graph_params
from ...core.topology import HopEdge
from ...errors import ProtocolError
from ..base import PaymentProtocol, register_protocol
from .customer import (
    alice_spec,
    bob_spec,
    chloe_spec,
    fanout_connector_spec,
    fanout_sink_spec,
    fanout_source_spec,
)
from .escrow import escrow_spec


@register_protocol
class TimeBoundedProtocol(PaymentProtocol):
    """Theorem 1 time-bounded protocol (Definition 1, χ receipts)

    The universal protocol fine-tuned for clock drift (paper §4).
    """

    name = "timebounded"
    definition = 1
    receipt_kinds = ("chi",)
    known_options = frozenset({
        "delta", "epsilon", "rho", "drift_tuned", "margin",
        "processing_bound", "processing_floor", "no_timeout",
    })
    # An assumed Δ keeps the calculus defined where the timing model
    # publishes none (partial synchrony, asynchrony).
    sweep_defaults = {"delta": 1.0, "epsilon": 0.05}
    supported_topologies = frozenset({"path", "dag", "multi-source"})
    # Escrows are TimedAutomata with decision-grade commit/refund
    # states: checkpoint at input states, write-ahead log around the
    # decision emits (see repro.anta.automaton and sim/decision_log).
    supports_recovery = True

    def build(self) -> None:
        env = self.env
        topo = env.topology
        delta = self.option("delta", env.network.timing.known_bound)
        if delta is None:
            raise ProtocolError(
                "timebounded protocol needs a delay bound: the timing model "
                "publishes none, so pass protocol_options={'delta': ...}"
            )
        epsilon = float(self.option("epsilon", 0.05))
        rho = float(self.option("rho", env.config.get("rho", 0.0)))
        drift_tuned = bool(self.option("drift_tuned", True))
        margin = float(self.option("margin", 0.0))
        processing_bound = float(self.option("processing_bound", epsilon))
        self._processing_floor = float(self.option("processing_floor", 0.0))
        self._no_timeout = bool(self.option("no_timeout", False))

        assumptions = TimingAssumptions(delta=float(delta), epsilon=epsilon, rho=rho)
        self.params = compute_graph_params(
            topo, assumptions, drift_tuned=drift_tuned, margin=margin
        )

        for edge in topo.edges:
            self._build_escrow(edge, processing_bound)
        for name in topo.customers():
            self._build_customer(name, processing_bound)

    # -- per-role builders ---------------------------------------------------

    def _make(self, name: str, spec: AutomatonSpec, ctx: Dict[str, Any],
              config: Dict[str, Any], processing_bound: float) -> TimedAutomaton:
        env = self.env
        behavior = env.byzantine_behavior(name)
        if behavior is not None:
            spec = apply_behavior(spec, behavior, ctx)
        automaton = TimedAutomaton(
            sim=env.sim,
            name=name,
            spec=spec,
            network=env.network,
            clock=env.clock_of(name),
            processing_bound=processing_bound,
            processing_floor=min(self._processing_floor, processing_bound),
            config=config,
        )
        self.add_participant(automaton)
        return automaton

    def _expected_issuer(self, customer: str) -> Union[str, Tuple[str, ...]]:
        """Whose χ discharges hops feeding ``customer``: the reachable
        sink (Bob's name on the path) or, with fan-out, any of them."""
        sinks = self.env.topology.reachable_sinks(customer)
        return sinks[0] if len(sinks) == 1 else sinks

    def _build_escrow(self, edge: HopEdge, processing_bound: float) -> None:
        env = self.env
        topo = env.topology
        name = edge.escrow
        config = {
            "index": topo.escrow_index(name),
            "upstream": edge.upstream,
            "downstream": edge.downstream,
            "a_i": self.params.a_of(name),
            "d_i": self.params.d_of(name),
            "amount": edge.amount,
            "ledger": env.ledgers[name],
            "identity": env.identity_of(name),
            "keyring": env.keyring,
            "payment_id": topo.payment_id,
            "expected_issuer": self._expected_issuer(edge.downstream),
        }
        ctx = {"role": "escrow", **config}
        spec = escrow_spec(name, edge.upstream, edge.downstream)
        if self._no_timeout:
            # Protocol *variant* (not a fault): escrows wait forever for
            # χ — the family member Theorem 2 defeats via non-termination.
            state = spec.states["await_certificate"]
            state.timeouts.clear()
        self._make(name, spec, ctx, config, processing_bound)

    def _build_customer(self, name: str, processing_bound: float) -> None:
        topo = self.env.topology
        ins = topo.in_edges(name)
        outs = topo.out_edges(name)
        if not ins and len(outs) == 1:
            self._build_alice(name, outs[0], processing_bound)
        elif not ins:
            self._build_fanout_source(name, outs, processing_bound)
        elif not outs and len(ins) == 1:
            self._build_bob(name, ins[0], processing_bound)
        elif not outs:
            self._build_fanout_sink(name, ins, processing_bound)
        elif len(ins) == 1 and len(outs) == 1:
            self._build_chloe(name, ins[0], outs[0], processing_bound)
        else:
            self._build_fanout_connector(name, ins, outs, processing_bound)

    def _build_alice(self, name: str, edge: HopEdge,
                     processing_bound: float) -> None:
        env = self.env
        topo = env.topology
        escrow = edge.escrow
        config = {
            "index": topo.customer_index(name),
            "payment_id": topo.payment_id,
            "keyring": env.keyring,
            "identity": env.identity_of(name),
            "downstream_escrow": escrow,
            "send_amount": edge.amount,
            "expected_guarantee_window": self.params.d_of(escrow),
            "expected_issuer": self._expected_issuer(name),
        }
        ctx = {"role": "alice", "upstream_escrow": escrow, **config}
        self._make(name, alice_spec(name, escrow), ctx, config, processing_bound)

    def _build_chloe(self, name: str, in_edge: HopEdge, out_edge: HopEdge,
                     processing_bound: float) -> None:
        env = self.env
        topo = env.topology
        upstream_escrow = in_edge.escrow
        downstream_escrow = out_edge.escrow
        config = {
            "index": topo.customer_index(name),
            "payment_id": topo.payment_id,
            "keyring": env.keyring,
            "identity": env.identity_of(name),
            "upstream_escrow": upstream_escrow,
            "downstream_escrow": downstream_escrow,
            "send_amount": out_edge.amount,
            "expected_guarantee_window": self.params.d_of(downstream_escrow),
            "expected_promise_window": self.params.a_of(upstream_escrow),
            "expected_issuer": self._expected_issuer(name),
        }
        ctx = {"role": "chloe", **config}
        self._make(
            name,
            chloe_spec(name, upstream_escrow, downstream_escrow),
            ctx,
            config,
            processing_bound,
        )

    def _build_bob(self, name: str, in_edge: HopEdge,
                   processing_bound: float) -> None:
        env = self.env
        topo = env.topology
        escrow = in_edge.escrow
        config = {
            "index": topo.customer_index(name),
            "payment_id": topo.payment_id,
            "keyring": env.keyring,
            "identity": env.identity_of(name),
            "upstream_escrow": escrow,
            "expected_promise_window": self.params.a_of(escrow),
            "expected_issuer": name,
        }
        ctx = {"role": "bob", **config}
        self._make(name, bob_spec(name, escrow), ctx, config, processing_bound)

    # -- fan-out roles (payment DAGs) ----------------------------------------

    def _fanout_config(self, name: str, ins: Sequence[HopEdge],
                       outs: Sequence[HopEdge]) -> Dict[str, Any]:
        env = self.env
        topo = env.topology
        return {
            "index": topo.customer_index(name),
            "payment_id": topo.payment_id,
            "keyring": env.keyring,
            "identity": env.identity_of(name),
            "in_escrows": tuple(e.escrow for e in ins),
            "out_escrows": tuple(e.escrow for e in outs),
            "send_amounts": {e.escrow: e.amount for e in outs},
            "expected_guarantee_windows": {
                e.escrow: self.params.d_of(e.escrow) for e in outs
            },
            "expected_promise_windows": {
                e.escrow: self.params.a_of(e.escrow) for e in ins
            },
            "expected_issuer": self._expected_issuer(name),
        }

    def _build_fanout_source(self, name: str, outs: Sequence[HopEdge],
                             processing_bound: float) -> None:
        config = self._fanout_config(name, (), outs)
        ctx = {"role": "source", **config}
        self._make(
            name,
            fanout_source_spec(name, config["out_escrows"]),
            ctx,
            config,
            processing_bound,
        )

    def _build_fanout_connector(self, name: str, ins: Sequence[HopEdge],
                                outs: Sequence[HopEdge],
                                processing_bound: float) -> None:
        config = self._fanout_config(name, ins, outs)
        ctx = {"role": "connector", **config}
        self._make(
            name,
            fanout_connector_spec(
                name, config["in_escrows"], config["out_escrows"]
            ),
            ctx,
            config,
            processing_bound,
        )

    def _build_fanout_sink(self, name: str, ins: Sequence[HopEdge],
                           processing_bound: float) -> None:
        config = self._fanout_config(name, ins, ())
        config["expected_issuer"] = name
        config["setup_done_state"] = "issue_chi"
        ctx = {"role": "sink", **config}
        self._make(
            name,
            fanout_sink_spec(name, config["in_escrows"]),
            ctx,
            config,
            processing_bound,
        )


__all__ = ["TimeBoundedProtocol"]
