"""The certified-blockchain commit protocol for deals (Herlihy et al.).

Arc escrows are *decision-conditioned* (no hash-locks, no deadlines):
funds move only on a commit decision, return on abort.  The decision is
derived from a shared certified blockchain: every arc escrow publishes
an "escrowed" record; parties may publish abort requests when they lose
patience; the first of {abort published, all arcs escrowed} in log
order wins — the transaction manager's rule
(:class:`~repro.protocols.weak.tm.TMVotes`) with no commit requests.

Per [3] (and our paper's Section 5): Safety and Termination hold even
under partial synchrony, but **strong liveness** cannot — an abort
published while some escrow's record is still in the mempool kills a
deal everyone wanted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..clocks import DriftingClock, PERFECT_CLOCK
from ..crypto.certificates import Decision, DecisionCertificate
from ..crypto.keys import Identity
from ..ledger.asset import Amount
from ..ledger.blockchain import Receipt, SimpleChain
from ..ledger.contracts import CertifiedBroadcastContract
from ..ledger.ledger import Ledger
from ..net.message import Envelope, MsgKind
from ..protocols.weak.tm import TMVotes
from ..sim.process import Process
from ..sim.trace import TraceKind
from .common import DealEnv, DealProcesses, arc_escrow_name
from .matrix import DealMatrix


class CertifiedArcEscrow(Process):
    """Decision-conditioned escrow for one deal arc."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        ledger: Ledger,
        depositor: str,
        beneficiary: str,
        amount: Amount,
        chain_name: str,
        observer_name: str,
        keyring: Any,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.ledger = ledger
        self.depositor = depositor
        self.beneficiary = beneficiary
        self.amount = amount
        self.chain_name = chain_name
        self.observer_name = observer_name
        self.keyring = keyring
        self.lock_id: Optional[str] = None
        self.decision: Optional[Decision] = None

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.MONEY and message.sender == self.depositor:
            self._on_deposit(message)
        elif message.kind is MsgKind.DECISION and message.sender == self.observer_name:
            self._on_decision(message)

    def _on_deposit(self, message: Envelope) -> None:
        payload = message.payload
        if self.lock_id is not None or self.decision is not None:
            return
        if not isinstance(payload, dict) or payload.get("amount") != self.amount:
            return
        if not self.ledger.account(self.depositor).can_pay(self.amount):
            return
        lock = self.ledger.escrow_deposit(
            depositor=self.depositor,
            beneficiary=self.beneficiary,
            amt=self.amount,
            lock_id=f"{self.name}/lock",
        )
        self.lock_id = lock.lock_id
        # Acknowledge custody to the depositor (she only awaits refunds
        # for deposits that were actually locked):
        self.network.send(
            self,
            self.depositor,
            MsgKind.MONEY,
            {"note": "locked", "arc": self.name},
        )
        # Publish the escrowed record on the certified chain:
        self.network.send(
            self,
            self.chain_name,
            MsgKind.CONTROL,
            {
                "op": "submit_tx",
                "contract": "log",
                "method": "publish",
                "args": {"payload": {"kind": "escrowed", "arc": self.name}},
            },
        )

    def _on_decision(self, message: Envelope) -> None:
        cert = message.payload
        if self.decision is not None or not isinstance(cert, DecisionCertificate):
            return
        if not cert.valid(self.keyring, expected_signer=self.observer_name):
            return
        self.decision = cert.decision
        if self.lock_id is not None:
            if cert.decision is Decision.COMMIT:
                self.ledger.escrow_release(self.lock_id)
                self.network.send(
                    self,
                    self.beneficiary,
                    MsgKind.MONEY,
                    {"note": "payment", "arc": self.name},
                )
            else:
                self.ledger.escrow_refund(self.lock_id)
                self.network.send(
                    self,
                    self.depositor,
                    MsgKind.MONEY,
                    {"note": "refund", "arc": self.name},
                )
        self.terminate(reason=f"decision {cert.decision.value}")


class CertifiedDealObserver(Process):
    """Derives the deal decision from the certified log."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        chain: SimpleChain,
        identity: Identity,
        arcs: List[str],
        recipients: List[str],
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.chain = chain
        self.identity = identity
        self.arcs = set(arcs)
        self.recipients = list(recipients)
        self.broadcasted = False
        chain.subscribe_finality(self._on_finality)

    def _on_finality(self, receipt: Receipt) -> None:
        if self.broadcasted or not receipt.ok:
            return
        contract = self.chain.contract("log")
        assert isinstance(contract, CertifiedBroadcastContract)
        votes = TMVotes(self.arcs, ())
        decision = None
        for record in contract.log:
            if decision is not None or record.height > receipt.block_height:
                break
            payload = record.payload
            if isinstance(payload, dict):
                decision = votes.add(payload.get("kind"), str(payload.get("arc")))
        if decision is None:
            return
        self.broadcasted = True
        cert = DecisionCertificate.issue(
            self.identity, payment_id="deal", decision=decision
        )
        self.sim.trace.record(
            self.sim.now, TraceKind.CERT_ISSUED, self.name, cert=decision.value
        )
        for recipient in self.recipients:
            self.network.send(self, recipient, MsgKind.DECISION, cert)


class CertifiedDealParty(Process):
    """A party: escrows outgoing arcs, may publish abort on impatience."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        index: int,
        matrix: DealMatrix,
        chain_name: str,
        observer_name: str,
        keyring: Any,
        patience_local: Optional[float],
        clock: DriftingClock = PERFECT_CLOCK,
        behavior: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.index = index
        self.matrix = matrix
        self.chain_name = chain_name
        self.observer_name = observer_name
        self.keyring = keyring
        self.patience_local = patience_local
        self.clock = clock
        self.behavior = behavior
        self.decision: Optional[Decision] = None
        self.resolved_arcs: set = set()
        self.locked_arcs: set = set()

    def start(self) -> None:
        if self.patience_local is not None:
            self.set_timer_at(
                "patience", self.clock.global_time(self.patience_local)
            )
        if self.behavior == "abort_immediately":
            self._publish_abort()
            return
        if self.behavior == "never_escrow":
            return
        for j, amount in self.matrix.out_arcs(self.index):
            self.network.send(
                self,
                arc_escrow_name(self.index, j),
                MsgKind.MONEY,
                {"amount": amount},
            )

    def _publish_abort(self) -> None:
        self.network.send(
            self,
            self.chain_name,
            MsgKind.CONTROL,
            {
                "op": "submit_tx",
                "contract": "log",
                "method": "publish",
                "args": {
                    "payload": {
                        "kind": MsgKind.ABORT_REQUEST.value,
                        "party": self.name,
                    }
                },
            },
        )

    def on_timer(self, timer_id: str) -> None:
        if timer_id == "patience" and self.decision is None:
            self._publish_abort()

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.DECISION and message.sender == self.observer_name:
            cert = message.payload
            if isinstance(cert, DecisionCertificate) and cert.valid(
                self.keyring, expected_signer=self.observer_name
            ):
                if self.decision is None:
                    self.decision = cert.decision
                    self.cancel_timer("patience")
                    self.sim.trace.record(
                        self.sim.now,
                        TraceKind.CERT_RECEIVED,
                        self.name,
                        cert=cert.decision.value,
                    )
                    self._maybe_finish()
        elif message.kind is MsgKind.MONEY:
            payload = message.payload
            if isinstance(payload, dict):
                if payload.get("note") == "locked":
                    self.locked_arcs.add(payload.get("arc"))
                else:
                    self.resolved_arcs.add(payload.get("arc"))
                self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.decision is None:
            return
        if self.decision is Decision.COMMIT:
            expected = {
                arc_escrow_name(i, self.index)
                for i, _ in self.matrix.in_arcs(self.index)
            }
        else:
            # Await refunds only for deposits the escrows acknowledged:
            expected = set(self.locked_arcs)
        if expected <= self.resolved_arcs:
            self.terminate(reason=f"deal {self.decision.value}")


def build_certified_deal(
    env: DealEnv, byzantine: Dict[int, str], options: Dict[str, Any]
) -> DealProcesses:
    """Protocol factory for :class:`~repro.deals.common.DealSession`."""
    matrix = env.matrix
    chain_name = "dealcbc"
    observer_name = "dealobserver"
    chain = SimpleChain(
        env.sim,
        chain_name,
        block_interval=float(options.get("block_interval", 1.0)),
        confirmations=int(options.get("confirmations", 1)),
    )
    chain.deploy(CertifiedBroadcastContract(address="log"))
    arc_names = [arc_escrow_name(i, j) for i, j, _ in matrix.arcs()]
    recipients = list(matrix.parties) + arc_names
    observer = CertifiedDealObserver(
        sim=env.sim,
        name=observer_name,
        network=env.network,
        chain=chain,
        identity=env.keyring.create(observer_name),
        arcs=arc_names,
        recipients=recipients,
    )
    infrastructure: List[Process] = [chain, observer]
    escrows: List[Process] = []
    for i, j, amount in matrix.arcs():
        name = arc_escrow_name(i, j)
        escrows.append(
            CertifiedArcEscrow(
                sim=env.sim,
                name=name,
                network=env.network,
                ledger=env.ledgers[(i, j)],
                depositor=matrix.parties[i],
                beneficiary=matrix.parties[j],
                amount=amount,
                chain_name=chain_name,
                observer_name=observer_name,
                keyring=env.keyring,
            )
        )
    patience = options.get("patience", None)
    parties: List[Process] = []
    for p in range(matrix.n_parties):
        name = matrix.parties[p]
        clock = env.clock_of(name)
        parties.append(
            CertifiedDealParty(
                sim=env.sim,
                name=name,
                network=env.network,
                index=p,
                matrix=matrix,
                chain_name=chain_name,
                observer_name=observer_name,
                keyring=env.keyring,
                patience_local=(
                    clock.local_time(env.sim.now) + float(patience)
                    if patience is not None
                    else None
                ),
                clock=clock,
                behavior=byzantine.get(p),
            )
        )
    return parties, escrows, infrastructure


__all__ = [
    "CertifiedArcEscrow",
    "CertifiedDealObserver",
    "CertifiedDealParty",
    "build_certified_deal",
]
