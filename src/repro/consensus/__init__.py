"""Partially synchronous consensus substrate for the notary-committee
transaction manager (Theorem 3)."""

from .committee import QuorumAssembler
from .dls import Notary, NotaryBehavior
from .messages import ConsensusMsg, Phase

__all__ = [
    "ConsensusMsg",
    "Notary",
    "NotaryBehavior",
    "Phase",
    "QuorumAssembler",
]
