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
verify.  :meth:`KeyRing.create` returns the identity of any name, so
only the code that assembles a run's world calls it, handing each
participant its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

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
        self._identities: Dict[str, Identity] = {}
        #: Signature handle → (its signer's name, the body it was made over).
        self._signatures: Dict[Any, Any] = {}

    def create(self, name: str) -> Identity:
        """Create (or return the existing) identity for ``name``."""
        existing = self._identities.get(name)
        if existing is not None:
            return existing
        identity = Identity(name=name, ring=self)
        self._identities[name] = identity
        return identity


__all__ = ["Identity", "KeyRing"]
