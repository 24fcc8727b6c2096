"""Assembly of the weak-liveness protocol (Theorem 3).

Options (``protocol_options`` of the session)
---------------------------------------------
``tm``:
    Transaction-manager backend: ``"trusted"`` (default),
    ``"contract"``, ``"committee"``, a ``(name, kwargs)`` tuple, or a
    ready :class:`~repro.protocols.weak.tm.TMBackend` instance.
``patience_setup`` / ``patience_decision``:
    Default patience windows (local-clock durations) applied to every
    customer; ``None`` = infinite.
``patience_overrides``:
    Map customer name -> ``(patience_setup, patience_decision)``.

Byzantine map values understood by this protocol:
``"never_deposit"``, ``"abort_immediately"``, ``"bob_never_commit"``
for customers; the TM's own faults are configured on the backend
(``TrustedPartyBackend(equivocate=True)``, committee ``byzantine=...``).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from ...errors import ProtocolError
from ..base import PaymentProtocol, register_protocol
from .customer import WeakCustomer
from .escrow import WeakEscrow
from .tm import TMBackend, make_backend


@register_protocol
class WeakLivenessProtocol(PaymentProtocol):
    """Theorem 3 weak protocol, trusted TM (Definition 2)

    Cross-chain payment with weak liveness guarantees.  Graph-native:
    one escrow automaton per hop edge, customer roles read off in/out
    degree (sources deposit into every outgoing hop, sinks request
    commit once every incoming hop is escrowed), and the transaction
    manager renders one commit/abort decision over the whole DAG from
    per-edge votes.
    """

    name = "weak"
    definition = 2
    receipt_kinds = ("commit",)
    known_options = frozenset({
        "tm", "patience_setup", "patience_decision", "patience_overrides",
    })
    # Finite patience: impatient aborts bound termination.
    sweep_defaults = {
        "tm": "trusted", "patience_setup": 120.0, "patience_decision": 120.0,
    }
    supported_topologies: FrozenSet[str] = frozenset(
        {"path", "dag", "multi-source"}
    )
    # Escrows log deposits/decisions write-ahead and, like an in-doubt
    # 2PC participant, re-query the TM for the verdict on restore.
    supports_recovery = True

    @classmethod
    def tm_backend(cls, options: Mapping[str, Any]) -> TMBackend:
        """The transaction manager ``options`` select."""
        return make_backend(options.get("tm", "trusted"))

    @classmethod
    def recovery_gap(cls, options: Mapping[str, Any]) -> Optional[str]:
        if cls.tm_backend(options).server is None:
            return f"tm={options.get('tm')} cannot re-serve a decision"
        return super().recovery_gap(options)

    def build(self) -> None:
        env = self.env
        topo = env.topology
        self.backend: TMBackend = self.tm_backend(self.options)
        self.backend.build(self)

        default_patience: Tuple[Optional[float], Optional[float]] = (
            self.option("patience_setup", None),
            self.option("patience_decision", None),
        )
        overrides: Dict[str, Tuple[Optional[float], Optional[float]]] = dict(
            self.option("patience_overrides", {})
        )

        sinks = set(topo.sinks())
        for edge in topo.edges:
            escrow = WeakEscrow(
                sim=env.sim,
                name=edge.escrow,
                network=env.network,
                keyring=env.keyring,
                identity=env.identity_of(edge.escrow),
                ledger=env.ledgers[edge.escrow],
                payment_id=topo.payment_id,
                upstream=edge.upstream,
                downstream=edge.downstream,
                amount=edge.amount,
                backend=self.backend,
                listener=self.backend.make_listener(),
                notify_beneficiary=(
                    edge.downstream if edge.downstream in sinks else None
                ),
            )
            self.add_participant(escrow)

        for name in topo.customers():
            patience = overrides.get(name, default_patience)
            behavior = env.byzantine_behavior(name)
            if behavior is not None and not isinstance(behavior, str):
                raise ProtocolError(
                    "weak protocol expects string Byzantine behaviours for "
                    f"customers, got {behavior!r} for {name}"
                )
            out_edges = topo.out_edges(name)
            in_edges = topo.in_edges(name)
            if not in_edges:
                role = "alice"
            elif not out_edges:
                role = "bob"
            else:
                role = "connector"
            customer = WeakCustomer(
                sim=env.sim,
                name=name,
                network=env.network,
                keyring=env.keyring,
                identity=env.identity_of(name),
                payment_id=topo.payment_id,
                role=role,
                backend=self.backend,
                listener=self.backend.make_listener(),
                deposits=[
                    (edge.escrow, edge.amount, env.ledgers[edge.escrow])
                    for edge in out_edges
                ],
                incoming_escrows=[edge.escrow for edge in in_edges],
                clock=env.clock_of(name),
                patience_setup=patience[0],
                patience_decision=patience[1],
                behavior=behavior,
            )
            self.add_participant(customer)


__all__ = ["WeakLivenessProtocol"]
