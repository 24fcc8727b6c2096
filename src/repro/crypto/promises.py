"""Escrow promises G(d) and P(a) — the paper's two contract messages.

From Section 4 of the paper:

* ``G(d)``: *"I guarantee that if I receive $ from you at my local time
  w, then I will send you either $ or χ by my local time w + d."*
  Sent by escrow ``e_i`` to its upstream customer ``c_i``.

* ``P(a)``: *"I promise that if I receive χ from you at my time v, with
  v < now + a, then I will send you $ by my local time v + ε."*
  Sent by escrow ``e_i`` to its downstream customer ``c_{i+1}``; ``now``
  is the escrow-local issuance time.

Promises are signed by the issuing escrow so customers can later prove
misbehaviour (not exercised by the protocols here, but it makes the
objects self-contained evidence, as in the paper's model where escrow
conduct is auditable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..errors import CryptoError
from .keys import Identity, KeyRing
from .signatures import Signature, sign, verify


@dataclass(frozen=True)
class Guarantee:
    """G(d): refund-or-certificate guarantee to the upstream customer."""

    payment_id: str
    escrow: str
    customer: str
    d: float
    signature: Signature

    def signing_fields(self) -> Dict[str, Any]:
        return {
            "type": "guarantee",
            "payment_id": self.payment_id,
            "escrow": self.escrow,
            "customer": self.customer,
            "d": self.d,
        }

    @classmethod
    def issue(
        cls, identity: Identity, payment_id: str, customer: str, d: float
    ) -> "Guarantee":
        """Create G(d) signed by the escrow ``identity``."""
        if d <= 0:
            raise CryptoError(f"guarantee window d must be > 0, got {d!r}")
        body = {
            "type": "guarantee",
            "payment_id": payment_id,
            "escrow": identity.name,
            "customer": customer,
            "d": d,
        }
        return cls(
            payment_id=payment_id,
            escrow=identity.name,
            customer=customer,
            d=d,
            signature=sign(identity, body),
        )

    def valid(self, keyring: KeyRing) -> bool:
        return (
            self.signature.signer == self.escrow
            and verify(keyring, self.signature, self.signing_fields())
        )


@dataclass(frozen=True)
class PaymentPromise:
    """P(a): pay-on-certificate promise to the downstream customer.

    ``issued_at_local`` is the escrow-local time ``now`` at issuance —
    the base of the acceptance window ``[now, now + a)``.  It is part of
    the signed body, making the window auditable.
    """

    payment_id: str
    escrow: str
    customer: str
    a: float
    issued_at_local: float
    signature: Signature

    def signing_fields(self) -> Dict[str, Any]:
        return {
            "type": "promise",
            "payment_id": self.payment_id,
            "escrow": self.escrow,
            "customer": self.customer,
            "a": self.a,
            "issued_at_local": self.issued_at_local,
        }

    @classmethod
    def issue(
        cls,
        identity: Identity,
        payment_id: str,
        customer: str,
        a: float,
        issued_at_local: float,
    ) -> "PaymentPromise":
        """Create P(a) signed by the escrow ``identity``."""
        if a <= 0:
            raise CryptoError(f"promise window a must be > 0, got {a!r}")
        body = {
            "type": "promise",
            "payment_id": payment_id,
            "escrow": identity.name,
            "customer": customer,
            "a": a,
            "issued_at_local": issued_at_local,
        }
        return cls(
            payment_id=payment_id,
            escrow=identity.name,
            customer=customer,
            a=a,
            issued_at_local=issued_at_local,
            signature=sign(identity, body),
        )

    def deadline_local(self) -> float:
        """Escrow-local instant at which the acceptance window closes."""
        return self.issued_at_local + self.a

    def valid(self, keyring: KeyRing) -> bool:
        return (
            self.signature.signer == self.escrow
            and verify(keyring, self.signature, self.signing_fields())
        )


__all__ = ["Guarantee", "PaymentPromise"]
