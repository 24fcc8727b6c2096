"""Customers for the weak-liveness protocol (Theorem 3).

Every customer "can, at any moment of their choice, lose patience and
abort the transaction, without a risk of losing value" (paper §3).  We
expose that choice as two patience windows, measured on the customer's
*local* clock:

``patience_setup``:
    how long to wait for her escrows' conditional guarantees before
    requesting an abort;
``patience_decision``:
    how long to wait, after depositing, for the decision before
    requesting an abort.

``None`` means infinite patience (the customer never aborts on her own).
Weak liveness (property L of Definition 2) says: if everyone's patience
exceeds the actual delays, every sink is paid.

Roles
-----
Roles are read off a customer's position in the payment graph (in/out
degree), which on the Figure-1 path reduces to Alice / connectors / Bob:

* Sources and connectors: wait for a conditional guarantee per outgoing
  hop, deposit into each, await the one whole-graph decision (commit ⇒
  parties with incoming hops await the released money from every
  upstream escrow; abort ⇒ deposits refunded).
* Sinks: wait for an "escrowed for you" notice from *every* incoming
  escrow, then ask the TM to commit; on commit they await the money, on
  abort they hold χa.

Byzantine variants (selected via the session's ``byzantine`` map):
``"never_deposit"``, ``"abort_immediately"``, ``"bob_never_commit"``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ...clocks import DriftingClock, PERFECT_CLOCK
from ...crypto.certificates import Decision
from ...crypto.signatures import SignedClaim
from ...ledger.asset import Amount
from ...ledger.ledger import Ledger
from ...net.message import Envelope, MsgKind
from ...sim.process import Process
from ...sim.trace import TraceKind
from .tm import DecisionListener, TMBackend, VerifiedDecision


class WeakCustomer(Process):
    """One customer of the weak-liveness protocol.

    Parameters
    ----------
    role:
        ``"alice"`` (source), ``"connector"``, or ``"bob"`` (sink).
    deposits:
        ``(escrow, amount, ledger)`` triples, one per outgoing hop
        (empty for sinks).
    incoming_escrows:
        The escrows expected to pay this customer on commit, one per
        incoming hop (empty for sources).
    behavior:
        ``None`` for honest; ``"never_deposit"``, ``"abort_immediately"``
        or ``"bob_never_commit"`` for Byzantine deviations.
    """

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        keyring: Any,
        identity: Any,
        payment_id: str,
        role: str,
        backend: TMBackend,
        listener: DecisionListener,
        deposits: Sequence[Tuple[str, Amount, Optional[Ledger]]] = (),
        incoming_escrows: Sequence[str] = (),
        clock: DriftingClock = PERFECT_CLOCK,
        patience_setup: Optional[float] = None,
        patience_decision: Optional[float] = None,
        behavior: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.keyring = keyring
        self.identity = identity
        self.payment_id = payment_id
        self.role = role
        self.backend = backend
        self.listener = listener
        #: escrow -> (amount, ledger), insertion-ordered per out-edge.
        self.deposits: Dict[str, Tuple[Amount, Optional[Ledger]]] = {
            escrow: (amount, ledger) for escrow, amount, ledger in deposits
        }
        self.incoming_escrows = tuple(incoming_escrows)
        self.clock = clock
        self.patience_setup = patience_setup
        self.patience_decision = patience_decision
        self.behavior = behavior
        #: escrow -> balance before the deposit (None = unknowable).
        self._deposited: Dict[str, Optional[int]] = {}
        self.aborted_requested = False
        self.commit_request_sent = False
        self.decision_seen: Optional[VerifiedDecision] = None
        self.promised: Set[str] = set()
        self.money_from: Set[str] = set()
        self.refunds_from: Set[str] = set()

    # -- local time ---------------------------------------------------------

    @property
    def now_local(self) -> float:
        return self.clock.local_time(self.sim.now)

    def _arm_patience(self, timer_id: str, patience: Optional[float]) -> None:
        if patience is None:
            return
        deadline_local = self.now_local + patience
        self.set_timer_at(timer_id, self.clock.global_time(deadline_local))

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self.behavior == "abort_immediately":
            self._request_abort()
            return
        if not self.deposits:
            return  # sinks wait for their escrows' notices
        self._arm_patience("setup", self.patience_setup)

    def on_timer(self, timer_id: str) -> None:
        if timer_id in ("setup", "decision") and self.decision_seen is None:
            self._request_abort()

    def _request_abort(self) -> None:
        if self.aborted_requested or self.decision_seen is not None:
            return
        self.aborted_requested = True
        self.note("lost patience, requesting abort")
        claim = SignedClaim.issue(
            self.identity, payment_id=self.payment_id, kind="abort_request"
        )
        self.backend.report(self, MsgKind.ABORT_REQUEST, claim)

    # -- messages ------------------------------------------------------------------

    def handle_message(self, message: Envelope) -> None:
        decision = self.listener.extract(message)
        if decision is not None:
            self._on_decision(decision)
            return
        if message.kind is MsgKind.GUARANTEE and message.sender in self.deposits:
            self._on_guarantee(message)
        elif message.kind is MsgKind.PROMISE and self.role == "bob":
            self._on_sink_notice(message)
        elif message.kind is MsgKind.MONEY:
            self._on_money(message)

    def _on_guarantee(self, message: Envelope) -> None:
        escrow = message.sender
        claim = message.payload
        if not isinstance(claim, SignedClaim):
            return
        if not claim.valid(self.keyring, expected_signer=escrow):
            return
        if claim.payment_id != self.payment_id or escrow in self._deposited:
            return
        if self.decision_seen is not None or self.behavior == "never_deposit":
            return
        if self.aborted_requested:
            # Having asked for an abort (lost patience, or the
            # abort-immediately deviation), a customer does not then put
            # money at risk.
            return
        if len(self._deposited) + 1 == len(self.deposits):
            self.cancel_timer("setup")
        amount, ledger = self.deposits[escrow]
        before: Optional[int] = None
        if ledger is not None:
            before = ledger.balance(self.name, amount.asset).units
        self._deposited[escrow] = before
        self.network.send(
            self,
            escrow,
            MsgKind.MONEY,
            {"amount": amount, "note": "deposit"},
        )
        self._arm_patience("decision", self.patience_decision)

    def _on_sink_notice(self, message: Envelope) -> None:
        claim = message.payload
        if not isinstance(claim, SignedClaim):
            return
        if message.sender not in self.incoming_escrows:
            return
        if not claim.valid(self.keyring, expected_signer=message.sender):
            return
        if claim.payment_id != self.payment_id:
            return
        if self.behavior == "bob_never_commit":
            return
        self.promised.add(message.sender)
        if (
            self.decision_seen is None
            and not self.commit_request_sent
            and len(self.promised) == len(self.incoming_escrows)
        ):
            self.commit_request_sent = True
            request = SignedClaim.issue(
                self.identity, payment_id=self.payment_id, kind="commit_request"
            )
            self.backend.report(self, MsgKind.COMMIT_REQUEST, request)
            self._arm_patience("decision", self.patience_decision)

    def _on_money(self, message: Envelope) -> None:
        payload = message.payload
        if not isinstance(payload, dict):
            return
        note = payload.get("note")
        if note == "payment" and message.sender in self.incoming_escrows:
            self.money_from.add(message.sender)
        elif note == "refund" and message.sender in self.deposits:
            self.refunds_from.add(message.sender)
        self._maybe_finish()

    # -- decisions ----------------------------------------------------------------------

    def _on_decision(self, decision: VerifiedDecision) -> None:
        if self.decision_seen is not None:
            return
        self.decision_seen = decision
        self.cancel_timer("setup")
        self.cancel_timer("decision")
        self.sim.trace.record(
            self.sim.now,
            TraceKind.CERT_RECEIVED,
            self.name,
            cert=decision.decision.value,
        )
        self._maybe_finish()

    def _deposit_outstanding(self, escrow: str) -> bool:
        """Whether money actually left this customer's account at ``escrow``.

        A customer trusts — and holds an account at — her deposit
        escrow, so checking her own ledger balance is legitimate.  An
        in-flight deposit that the escrow never locked (e.g. it decided
        abort first) leaves the balance untouched: nothing to wait for.
        """
        if escrow not in self._deposited:
            return False
        before = self._deposited[escrow]
        amount, ledger = self.deposits[escrow]
        if ledger is None or before is None:
            return True  # cannot check; assume outstanding
        current = ledger.balance(self.name, amount.asset).units
        return current < before

    def _maybe_finish(self) -> None:
        """Terminate once the decision arrived and the money settled.

        commit: a customer expecting incoming money waits for all of it;
        a source (no incoming escrows) terminates on χc alone.
        abort: a customer whose deposits actually left her account waits
        for their refunds; everyone else terminates on the certificate.
        """
        if self.decision_seen is None:
            return
        if self.decision_seen.decision is Decision.COMMIT:
            for escrow in self.incoming_escrows:
                if escrow not in self.money_from:
                    return
            self.terminate(reason="committed")
        else:
            for escrow in self._deposited:
                if escrow not in self.refunds_from and self._deposit_outstanding(
                    escrow
                ):
                    return
            self.terminate(reason="aborted")


__all__ = ["WeakCustomer"]
