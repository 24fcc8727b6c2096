"""Simulated authenticated cryptography: identities, signatures,
certificates, escrow promises, and hash-locks."""

from .certificates import (
    Decision,
    DecisionCertificate,
    PaymentCertificate,
    QuorumCertificate,
    Vote,
)
from .hashlock import HashLock, Preimage, new_secret
from .keys import Identity, KeyRing
from .promises import Guarantee, PaymentPromise
from .signatures import Signature, sign, verify

__all__ = [
    "Decision",
    "DecisionCertificate",
    "Guarantee",
    "HashLock",
    "Identity",
    "KeyRing",
    "PaymentCertificate",
    "PaymentPromise",
    "Preimage",
    "QuorumCertificate",
    "Signature",
    "Vote",
    "new_secret",
    "sign",
    "verify",
]
