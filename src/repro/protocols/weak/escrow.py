"""Escrow for the weak-liveness protocol (Theorem 3).

The escrow's conduct is decision-driven rather than timeout-driven:

1. announce its conditional guarantee to the upstream customer
   ("deposits are released on a commit certificate, refunded on an
   abort certificate");
2. on deposit: lock the value and report ``escrowed`` (signed) to the
   transaction manager; the last escrow also notifies Bob;
3. on a *verified* decision: release downstream (commit) or refund
   upstream (abort), notify the moved-money party, and terminate.

Because the escrow acts only on verified certificates and the value
sits in a ledger lock in between, escrow security (ES) holds no matter
when — or whether — the decision arrives.
"""

from __future__ import annotations

from typing import Any, Optional

from ...crypto.signatures import SignedClaim
from ...ledger.asset import Amount
from ...ledger.ledger import Ledger
from ...net.message import Envelope, MsgKind
from ...sim.process import Process
from ...sim.trace import TraceKind
from .tm import DecisionListener, TMBackend, VerifiedDecision
from ...crypto.certificates import Decision


class WeakEscrow(Process):
    """One escrow ``e_i`` of the weak-liveness protocol."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        keyring: Any,
        identity: Any,
        ledger: Ledger,
        payment_id: str,
        upstream: str,
        downstream: str,
        amount: Amount,
        backend: TMBackend,
        listener: DecisionListener,
        notify_beneficiary: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.keyring = keyring
        self.identity = identity
        self.ledger = ledger
        self.payment_id = payment_id
        self.upstream = upstream
        self.downstream = downstream
        self.amount = amount
        self.backend = backend
        self.listener = listener
        self.notify_beneficiary = notify_beneficiary
        self.lock_id: Optional[str] = None
        self.decision_seen: Optional[VerifiedDecision] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        guarantee = SignedClaim.issue(
            self.identity,
            payment_id=self.payment_id,
            kind="conditional_guarantee",
            customer=self.upstream,
        )
        self.network.send(self, self.upstream, MsgKind.GUARANTEE, guarantee)

    # -- messages -----------------------------------------------------------

    def handle_message(self, message: Envelope) -> None:
        decision = self.listener.extract(message)
        if decision is not None:
            self._on_decision(decision)
            return
        if message.kind is MsgKind.MONEY and message.sender == self.upstream:
            self._on_deposit(message)

    def _on_deposit(self, message: Envelope) -> None:
        if self.lock_id is not None or self.decision_seen is not None:
            return  # duplicate, or raced past the decision — funds stay put
        payload = message.payload
        amount = payload.get("amount") if isinstance(payload, dict) else None
        if amount != self.amount:
            return
        if not self.ledger.account(self.upstream).can_pay(self.amount):
            return
        lock = self.ledger.escrow_deposit(
            depositor=self.upstream,
            beneficiary=self.downstream,
            amt=self.amount,
            lock_id=f"{self.payment_id}/{self.name}",
        )
        self.lock_id = lock.lock_id
        # The lock is on-ledger (durable); checkpoint its id so a
        # restored escrow knows it holds money and must re-report.
        self.checkpoint(lock_id=self.lock_id)
        claim = SignedClaim.issue(
            self.identity, payment_id=self.payment_id, kind="escrowed"
        )
        self.backend.report(self, MsgKind.ESCROWED, claim)
        if self.notify_beneficiary is not None:
            promise = SignedClaim.issue(
                self.identity,
                payment_id=self.payment_id,
                kind="escrowed_for_you",
                customer=self.notify_beneficiary,
            )
            self.network.send(
                self, self.notify_beneficiary, MsgKind.PROMISE, promise
            )

    # -- decisions ---------------------------------------------------------------

    def _on_decision(self, decision: VerifiedDecision) -> None:
        if self.decision_seen is not None:
            return
        # Crash before the decision is acted on: the certificate
        # envelope is lost with the volatile state; a restored escrow
        # must re-query the TM to learn the verdict again.
        if self.reach_crash_point("pre-decision"):
            return
        self.decision_seen = decision
        self.sim.trace.record(
            self.sim.now,
            TraceKind.CERT_RECEIVED,
            self.name,
            cert=decision.decision.value,
        )
        sends = []
        if self.lock_id is not None:
            if decision.decision is Decision.COMMIT:
                self.ledger.escrow_release(self.lock_id)
                sends.append((
                    self.downstream,
                    MsgKind.MONEY,
                    {"amount": self.amount, "note": "payment"},
                ))
            else:
                self.ledger.escrow_refund(self.lock_id)
                sends.append((
                    self.upstream,
                    MsgKind.MONEY,
                    {"amount": self.amount, "note": "refund"},
                ))
        # Write-ahead: the ledger op is on-chain already, the
        # notifications are not — log them before transmitting so a
        # post-sign-pre-send crash can retransmit on restore.
        if self.send_decision(sends, decision=decision.decision.value):
            self.terminate(reason=f"decision {decision.decision.value}")

    # -- crash recovery ------------------------------------------------------

    def restore(self) -> None:
        """Replay the decision log; if still in doubt, ask the TM again.

        Mirrors an in-doubt 2PC participant: a logged decision is
        re-executed (:meth:`~repro.sim.process.Process.replay`
        retransmits any notifications that never made it out), an
        escrow that crashed before the decision re-reports its on-ledger
        lock and re-queries the verdict — the one-shot decision
        broadcast may have happened while it was down.
        """
        checkpoint, decision = self.replay()
        self.lock_id = (checkpoint or {}).get("lock_id")
        if decision is not None:
            value = decision["decision"]
            self.decision_seen = VerifiedDecision(
                decision=Decision(value), certificate=None
            )
            self.terminate(reason=f"decision {value} (recovered)")
            return
        if self.lock_id is not None:
            claim = SignedClaim.issue(
                self.identity, payment_id=self.payment_id, kind="escrowed"
            )
            self.backend.report(self, MsgKind.ESCROWED, claim)
        self.backend.requery(self)


__all__ = ["WeakEscrow"]
