"""Escrow promises G(d) and P(a) — the paper's two contract messages.

From Section 4 of the paper:

* ``G(d)``: *"I guarantee that if I receive $ from you at my local time
  w, then I will send you either $ or χ by my local time w + d."*
  Sent by escrow ``e_i`` to its upstream customer ``c_i``.

* ``P(a)``: *"I promise that if I receive χ from you at my time v, with
  v < now + a, then I will send you $ by my local time v + ε."*
  Sent by escrow ``e_i`` to its downstream customer ``c_{i+1}``; ``now``
  is the escrow-local issuance time.

Promises are :class:`~repro.crypto.signatures.Signed` by the issuing
escrow so customers can later prove misbehaviour (not exercised by the
protocols here, but it makes the objects self-contained evidence, as in
the paper's model where escrow conduct is auditable).  The window
checks run on every construction, not only on issue.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CryptoError
from .signatures import Signed


@dataclass(frozen=True)
class Guarantee(Signed):
    """G(d): refund-or-certificate guarantee to the upstream customer."""

    KIND = "guarantee"
    SIGNER = "escrow"

    payment_id: str
    escrow: str
    customer: str
    d: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.d <= 0:
            raise CryptoError(f"guarantee window d must be > 0, got {self.d!r}")


@dataclass(frozen=True)
class PaymentPromise(Signed):
    """P(a): pay-on-certificate promise to the downstream customer.

    ``issued_at_local`` is the escrow-local time ``now`` at issuance —
    the base of the acceptance window ``[now, now + a)``.  It is part of
    the signed body, making the window auditable.
    """

    KIND = "promise"
    SIGNER = "escrow"

    payment_id: str
    escrow: str
    customer: str
    a: float
    issued_at_local: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.a <= 0:
            raise CryptoError(f"promise window a must be > 0, got {self.a!r}")

    def deadline_local(self) -> float:
        """Escrow-local instant at which the acceptance window closes."""
        return self.issued_at_local + self.a


__all__ = ["Guarantee", "PaymentPromise"]
