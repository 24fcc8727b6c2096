"""Quorum-certificate assembly.

:class:`QuorumAssembler` is the participant-side helper: it collects
signed DECIDE votes from notaries and yields a
:class:`~repro.crypto.certificates.QuorumCertificate` once ``2f+1``
distinct valid votes agree.  The notary that feeds the transaction
manager's decision rule into consensus,
:class:`~repro.protocols.weak.tm.PaymentNotary`, lives with the other
TM realisations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..crypto.certificates import Decision, QuorumCertificate, Vote
from ..crypto.keys import KeyRing
from ..net.message import Envelope, MsgKind
from .messages import ConsensusMsg, Phase


class QuorumAssembler:
    """Collects DECIDE votes until a valid quorum certificate forms."""

    def __init__(self, keyring: KeyRing, committee: List[str], threshold: int) -> None:
        self.keyring = keyring
        self.committee = list(committee)
        self.threshold = int(threshold)
        self._votes: Dict[Decision, Dict[str, Vote]] = {
            Decision.COMMIT: {},
            Decision.ABORT: {},
        }
        self.certificate: Optional[QuorumCertificate] = None

    def add_envelope(self, envelope: Envelope) -> Optional[QuorumCertificate]:
        """Feed a consensus envelope; returns a QC when one first forms."""
        if envelope.kind is not MsgKind.CONSENSUS:
            return None
        msg = envelope.payload
        if not isinstance(msg, ConsensusMsg) or msg.phase is not Phase.DECIDE:
            return None
        if msg.vote is None or msg.value is None:
            return None
        if envelope.sender not in self.committee or msg.vote.notary != envelope.sender:
            return None
        if not msg.vote.valid(self.keyring):
            return None
        return self.add_vote(msg.vote)

    def add_vote(self, vote: Vote) -> Optional[QuorumCertificate]:
        """Feed a pre-verified vote."""
        if self.certificate is not None:
            return None
        self._votes[vote.decision][vote.notary] = vote
        votes = self._votes[vote.decision]
        if len(votes) >= self.threshold:
            cert = QuorumCertificate(
                payment_id=vote.payment_id,
                decision=vote.decision,
                votes=tuple(votes.values()),
            )
            if cert.valid(self.keyring, self.committee, self.threshold):
                self.certificate = cert
                return cert
        return None

    def votes_for(self, decision: Decision) -> int:
        """Distinct valid votes collected for a decision."""
        return len(self._votes[decision])


__all__ = ["QuorumAssembler"]
