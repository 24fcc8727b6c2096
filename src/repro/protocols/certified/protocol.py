"""Certified-blockchain commit baseline (Herlihy–Liskov–Shrira).

The *certified blockchain commit protocol* of [3] replaces per-party
timeouts with a shared **certified blockchain** (CBC): a public
append-only log whose entries come with transferable proofs of
publication.  Parties publish their votes ("escrowed", commit request,
abort request) on the CBC; the *order of publication* decides the
outcome deterministically, so everybody extracts the same decision —
safety and termination under partial synchrony, but (as Section 5 of
our paper notes) **no strong liveness**: an abort published first wins
even if everyone was willing.

Structure here:

* a :class:`~repro.protocols.weak.tm.ChainBackend` hosts the
  :class:`~repro.ledger.contracts.CertifiedBroadcastContract`;
* participants publish :class:`~repro.crypto.signatures.SignedClaim`
  votes via transactions;
* a chain-local observer replays the finalised log through the TM
  decision rule (:class:`~repro.protocols.weak.tm.TMVotes`: the first
  abort before commit-completion wins) and announces the decision
  certificate;
* escrows/customers are the weak-liveness participants — the two
  protocols share their on-decision behaviour, which is exactly the
  correspondence the paper draws.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from ...crypto.certificates import Decision
from ...crypto.signatures import SignedClaim
from ...ledger.blockchain import Contract, Receipt, SimpleChain
from ...ledger.contracts import CertifiedBroadcastContract
from ...net.message import MsgKind
from ..base import register_protocol
from ..weak.protocol import WeakLivenessProtocol
from ..weak.tm import ChainAgent, ChainBackend, TMBackend, TMVotes, valid_claim


class CBCObserver(ChainAgent):
    """Replays the certified log and announces the derived decision."""

    def __init__(
        self, env: Any, name: str, chain: SimpleChain, contract_address: str
    ) -> None:
        super().__init__(env, name, chain, contract_address)
        self.keyring = env.keyring
        self.escrows = env.topology.escrows()
        self.sinks = env.topology.sinks()

    def decide(self, receipt: Receipt, contract: Any) -> Optional[Decision]:
        """Replay the published-and-final prefix of the log through a
        fresh :class:`~repro.protocols.weak.tm.TMVotes`."""
        if not receipt.ok:
            return None
        votes = TMVotes(self.escrows, self.sinks)
        for record in contract.log:
            if record.height > receipt.block_height:
                break
            claim = record.payload
            if valid_claim(claim, self.keyring, record.publisher, self.payment_id):
                decision = votes.add(claim.kind, record.publisher)
                if decision is not None:
                    return decision
        return None


class CBCBackend(ChainBackend):
    """Votes as certified publications; decisions from the log order."""

    chain_name = "cbc"
    server = "cbcobserver"
    contract_address = "log"
    agent = CBCObserver

    def _contract(self, topology: Any) -> Contract:
        return CertifiedBroadcastContract(address=self.contract_address)

    def _transaction(
        self, kind: MsgKind, claim: SignedClaim
    ) -> Tuple[str, Dict[str, Any]]:
        # The observer replays the claim's own signed ``kind``.
        return "publish", {"payload": claim}


@register_protocol
class CertifiedCommitProtocol(WeakLivenessProtocol):
    """weak protocol over a certified-blockchain log (Definition 2)

    Weak-liveness participants over a certified-blockchain decision
    log.  Options: ``block_interval``, ``confirmations``, plus the
    patience options of :class:`WeakLivenessProtocol` (but no ``tm``:
    the log is the transaction manager).
    """

    name = "certified"
    known_options = frozenset({
        "patience_setup", "patience_decision", "patience_overrides",
        "block_interval", "confirmations",
    })
    sweep_defaults = {"patience_setup": 500.0, "patience_decision": 500.0}

    @classmethod
    def tm_backend(cls, options: Mapping[str, Any]) -> TMBackend:
        # SimpleChain validates and converts both values when built.
        return CBCBackend(
            block_interval=options.get("block_interval", 1.0),
            confirmations=options.get("confirmations", 2),
        )


__all__ = ["CBCBackend", "CBCObserver", "CertifiedCommitProtocol"]
