"""Identities and the record of what they signed (simulated).

Signatures are ideal, after Canetti's signing functionality
("Universally Composable Signature, Certification, and
Authentication", CSFW 2004): a :class:`KeyRing` records every statement
its identities sign, and a signature verifies only if that ring
recorded it (:mod:`repro.crypto.signatures`).  The security property
the Byzantine model needs — *a process can only produce signatures
attributable to identities it holds* — rests on structure: signing
requires the :class:`Identity` object, and no module outside this
package makes a signature handle or touches the record (an ``ast`` scan
in ``tests/test_source_hygiene.py``).  Participants hold the ring to
verify, so holding the ring must not yield an identity:
:meth:`KeyRing.create` issues each name's identity once, to the code
that assembles a run's world, which hands each participant its own.
The ring remembers only the names it issued, never the identities, so
a dropped ring and its record are freed by reference counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Set

from ..errors import CryptoError


@dataclass(frozen=True)
class Identity:
    """A named signer.  Possession of the object = ability to sign."""

    name: str
    ring: KeyRing = field(repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise CryptoError("identity name must be non-empty")


class KeyRing:
    """The identities of one simulated world, and what each signed.

    Each ring keeps its own record, so a statement signed in one ring
    never verifies in another.
    """

    def __init__(self) -> None:
        #: Names whose identity this ring has issued.
        self._issued: Set[str] = set()
        #: Signature handle → (its signer's name, the body it was made over).
        self._signatures: Dict[Any, Any] = {}

    def create(self, name: str) -> Identity:
        """Issue the identity for ``name``; each name is issued once.

        Raises
        ------
        CryptoError
            If this ring already issued ``name``'s identity.
        """
        if name in self._issued:
            raise CryptoError(f"identity {name!r} was already issued")
        identity = Identity(name=name, ring=self)
        self._issued.add(name)
        return identity


__all__ = ["Identity", "KeyRing"]
