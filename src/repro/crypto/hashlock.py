"""Hash-locks for the HTLC / timelock-commit baselines.

A hash-lock commits to a secret ``s`` by publishing ``h = SHA-256(s)``;
funds locked under ``h`` can be claimed by presenting any preimage of
``h``.  This is the mechanism behind hashed timelock contracts (HTLC,
the Interledger *atomic* mode) and the timelock commit protocol of
Herlihy–Liskov–Shrira used in the Section 5 comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence

from ..errors import CryptoError


@dataclass(frozen=True)
class HashLock:
    """A published hash commitment."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise CryptoError("hash-lock digest must be 32 bytes (SHA-256)")

    def matches(self, preimage: "Preimage") -> bool:
        """Whether ``preimage`` opens this lock."""
        return hashlib.sha256(preimage.value).digest() == self.digest


@dataclass(frozen=True)
class Preimage:
    """A secret that opens a :class:`HashLock`."""

    value: bytes

    def lock(self) -> HashLock:
        """The lock this preimage opens."""
        return HashLock(hashlib.sha256(self.value).digest())


def new_secret(seed: str) -> Preimage:
    """Derive a deterministic secret from a seed string.

    Determinism keeps simulations reproducible; unpredictability is not
    required because the simulation's adversaries are scheduling/behaviour
    adversaries, not cryptanalytic ones.
    """
    return Preimage(hashlib.blake2b(seed.encode("utf-8"), digest_size=32).digest())


def sink_secrets(payment_id: str, sinks: Sequence[str]) -> Dict[str, Preimage]:
    """One deterministic secret per payment recipient.

    On a multi-sink payment DAG every recipient holds their *own*
    secret, so a hop commits only when every sink downstream of it has
    revealed theirs.  The single-sink case keeps the historical
    ``<payment_id>/secret`` seed so path runs stay byte-identical with
    pre-DAG builds.
    """
    if len(sinks) == 1:
        return {sinks[0]: new_secret(f"{payment_id}/secret")}
    return {sink: new_secret(f"{payment_id}/secret/{sink}") for sink in sinks}


__all__ = ["HashLock", "Preimage", "new_secret", "sink_secrets"]

