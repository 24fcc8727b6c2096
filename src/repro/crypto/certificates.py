"""Certificates: χ, commit/abort decisions, and quorum certificates.

The paper's protocols revolve around three certificate families:

* :class:`PaymentCertificate` — χ, signed by Bob, stating that Alice's
  obligation to pay him has been met (Definition 1).
* :class:`DecisionCertificate` — χc (commit) or χa (abort), issued by a
  transaction manager in the weak-liveness protocol (Definition 2).
  Property CC demands that χc and χa are never both issued.
* :class:`QuorumCertificate` — a decision backed by ≥ ``threshold``
  distinct valid notary signatures, the committee realisation of the
  transaction manager.

χ, χc/χa and each notary :class:`Vote` are
:class:`~repro.crypto.signatures.Signed` statements: a class declares
only its fields, and the base issues and verifies them.  A quorum
certificate carries no signature of its own; it is valid when enough
of its votes are.  Holders can hand certificates around freely, and
anyone with the key ring can verify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Sequence

from ..errors import CryptoError
from .keys import KeyRing
from .signatures import Signed


class Decision(str, Enum):
    """Transaction-manager decision values."""

    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True)
class PaymentCertificate(Signed):
    """χ — Bob's signed statement that his payment obligation is met.

    Attributes
    ----------
    payment_id:
        Identifier of the payment session this certificate belongs to.
    issuer:
        Name of the signer (Bob in honest runs).
    """

    KIND = "chi"
    SIGNER = "issuer"

    payment_id: str
    issuer: str


@dataclass(frozen=True)
class DecisionCertificate(Signed):
    """χc / χa — a single-signer transaction-manager decision."""

    KIND = "decision"
    SIGNER = "issuer"

    payment_id: str
    decision: Decision
    issuer: str

    @property
    def is_commit(self) -> bool:
        return self.decision is Decision.COMMIT


@dataclass(frozen=True)
class Vote(Signed):
    """One notary's signed vote for a decision."""

    KIND = "vote"
    SIGNER = "notary"

    payment_id: str
    decision: Decision
    notary: str


@dataclass(frozen=True)
class QuorumCertificate:
    """A decision backed by a quorum of notary votes.

    Validity requires ≥ ``threshold`` votes that (a) verify, (b) are by
    *distinct* notaries drawn from the known committee, and (c) agree
    with the certificate's payment id and decision.
    """

    payment_id: str
    decision: Decision
    votes: Sequence[Vote] = field(default_factory=tuple)

    def supporting_notaries(self, keyring: KeyRing, committee: Sequence[str]) -> List[str]:
        """Distinct committee members with valid, matching votes."""
        members = set(committee)
        seen: List[str] = []
        for vote in self.votes:
            if vote.notary in seen or vote.notary not in members:
                continue
            if vote.payment_id != self.payment_id or vote.decision != self.decision:
                continue
            if vote.valid(keyring):
                seen.append(vote.notary)
        return seen

    def valid(
        self, keyring: KeyRing, committee: Sequence[str], threshold: int
    ) -> bool:
        """Whether the certificate carries a valid quorum."""
        if threshold <= 0:
            raise CryptoError("quorum threshold must be positive")
        return len(self.supporting_notaries(keyring, committee)) >= threshold

    @property
    def is_commit(self) -> bool:
        return self.decision is Decision.COMMIT


#: Union type used in payloads: either a single-signer or quorum decision.
AnyDecisionCertificate = (DecisionCertificate, QuorumCertificate)


__all__ = [
    "AnyDecisionCertificate",
    "Decision",
    "DecisionCertificate",
    "PaymentCertificate",
    "QuorumCertificate",
    "Vote",
]
