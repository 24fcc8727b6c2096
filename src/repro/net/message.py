"""Message envelopes.

All inter-participant communication travels as :class:`Envelope`
objects: an authenticated (sender-attributed) wrapper around a typed
payload.  The network layer guarantees *authentication* — an envelope's
``sender`` field is set by the network at send time from the registered
identity of the sending process, so a Byzantine participant can lie in
its payloads but cannot impersonate another participant at the envelope
level.  This realises the paper's "classic Byzantine model with
authentication".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class MsgKind(str, Enum):
    """Payload categories used across all protocols.

    The paper's three message kinds (certificate χ, value $, promises
    G/P) plus the control-plane kinds needed by the weak-liveness
    protocol, its transaction managers, and the consensus substrate.
    """

    GUARANTEE = "guarantee"  # G(d): escrow -> upstream customer
    PROMISE = "promise"  # P(a): escrow -> downstream customer
    MONEY = "money"  # $: value transfer notification
    CERTIFICATE = "certificate"  # χ: signed by Bob
    # Weak-liveness protocol control plane:
    ESCROWED = "escrowed"  # escrow -> TM: deposit locked
    COMMIT_REQUEST = "commit_request"  # Bob -> TM
    ABORT_REQUEST = "abort_request"  # any customer -> TM
    DECISION = "decision"  # TM -> all: commit/abort certificate
    # HTLC / deals:
    HASHLOCK_SETUP = "hashlock_setup"
    SECRET = "secret"
    CLAIM = "claim"
    # Consensus:
    CONSENSUS = "consensus"
    # Generic:
    CONTROL = "control"


_MSG_SEQ = itertools.count()


@dataclass(frozen=True)
class Envelope:
    """One message in flight.

    Attributes
    ----------
    sender / recipient:
        Participant names; ``sender`` is network-attributed (cannot be
        forged by the sending process).
    kind:
        Payload category; see :class:`MsgKind`.
    payload:
        Arbitrary structured content (promise objects, certificates,
        amounts, consensus records, ...).
    msg_id:
        Process-wide unique id, useful for trace correlation.
    send_time:
        Global time at which the message entered the network.
    """

    sender: str
    recipient: str
    kind: MsgKind
    payload: Any = None
    msg_id: int = field(default_factory=lambda: next(_MSG_SEQ))
    send_time: float = 0.0

    def describe(self) -> str:
        """Short human-readable summary for traces and debugging."""
        return f"{self.kind.value}#{self.msg_id} {self.sender}->{self.recipient}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Envelope({self.describe()}, t={self.send_time:.6g})"


__all__ = ["Envelope", "MsgKind"]
