"""Identities and key material (simulated).

Real deployments use asymmetric signatures; for a deterministic,
dependency-free simulation we use HMAC with per-identity secrets held in
a :class:`KeyRing`.  The security property we need for the Byzantine
model — *a process can only produce signatures attributable to
identities whose secret it holds* — is enforced structurally: signing
requires the :class:`Identity` object (which carries the secret), and
honest infrastructure never hands one identity's object to another
participant.  Verification needs only the public registry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List

from ..errors import CryptoError


@lru_cache(maxsize=1024)
def _derive_secret(name: str, domain: str) -> bytes:
    """Deterministic per-identity secret (simulation only).

    Pure in its arguments (no seed involvement), so the derivation is
    memoized: campaigns re-create the same few identities for every
    trial.
    """
    return hashlib.blake2b(
        f"repro-keyring:{domain}:{name}".encode("utf-8"), digest_size=32
    ).digest()


@dataclass(frozen=True)
class Identity:
    """A named signer.  Possession of the object = ability to sign."""

    name: str
    secret: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise CryptoError("identity name must be non-empty")
        if len(self.secret) < 16:
            raise CryptoError("identity secret too short")


class KeyRing:
    """Registry of identities for one simulated world.

    Parameters
    ----------
    domain:
        Namespace string; two key rings with different domains produce
        incompatible signatures, preventing cross-simulation replay in
        tests.
    """

    def __init__(self, domain: str = "default") -> None:
        self.domain = domain
        self._identities: Dict[str, Identity] = {}

    def create(self, name: str) -> Identity:
        """Create (or return the existing) identity for ``name``."""
        existing = self._identities.get(name)
        if existing is not None:
            return existing
        identity = Identity(name=name, secret=_derive_secret(name, self.domain))
        self._identities[name] = identity
        return identity

    def secret_of(self, name: str) -> bytes:
        """Secret lookup used *only* by the verifier.

        Verification recomputes the HMAC, which in this simulation
        requires the secret.  The method is package-private by
        convention: protocol/Byzantine code receives Identity objects,
        never the ring.
        """
        identity = self._identities.get(name)
        if identity is None:
            raise CryptoError(f"unknown identity: {name!r}")
        return identity.secret

    def knows(self, name: str) -> bool:
        """Whether ``name`` is registered."""
        return name in self._identities

    def names(self) -> List[str]:
        """Sorted registered identity names."""
        return sorted(self._identities)


__all__ = ["Identity", "KeyRing"]
