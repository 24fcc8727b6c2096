"""Signed statements over canonical encodings.

A :class:`Signature` binds an identity name to a *canonical encoding* of
a payload.  Canonicalisation walks plain Python values (dict, list,
tuple, str, int, float, bool, None, bytes) and Enum members, which
encode as their values; the encoding is stable across runs and
platforms so signatures are reproducible.

:class:`Signed` is the one implementation of a signed statement.  A
subclass declares its fields; the base signs and verifies the body
``(KIND, *every field but signature)`` read off the instance, so a
signature binds every field and no second copy of the body exists.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from typing import Any, ClassVar, Optional, Tuple, Type, TypeVar

from ..errors import CryptoError, SignatureError
from .keys import Identity, KeyRing


def canonical_encode(payload: Any) -> bytes:
    """Deterministically encode ``payload`` for signing.

    Raises
    ------
    CryptoError
        If the payload contains an unsupported type.
    """
    out = bytearray()
    _encode_into(payload, out)
    return bytes(out)


def _encode_into(value: Any, out: bytearray) -> None:
    # Exact-class dispatch, ordered by observed frequency in protocol
    # payloads.  Enum members encode as their values; any other type,
    # a subclass of a plain type included, raises rather than be signed
    # as something it is not.
    cls = value.__class__
    if cls is str:
        raw = value.encode("utf-8")
        out += b"S%d:" % len(raw)
        out += raw
        out += b";"
    elif cls is int:
        out += b"I%d;" % value
    elif cls is dict:
        keys = sorted(value, key=str)
        out += b"D%d:" % len(keys)
        for key in keys:
            _encode_into(str(key), out)
            _encode_into(value[key], out)
        out += b";"
    elif cls is list or cls is tuple:
        out += b"L%d:" % len(value)
        for item in value:
            _encode_into(item, out)
        out += b";"
    elif cls is float:
        out += b"F" + value.hex().encode() + b";"
    elif cls is bool:
        out += b"B1;" if value else b"B0;"
    elif value is None:
        out += b"N;"
    elif cls is bytes:
        out += b"Y%d:" % len(value)
        out += value
        out += b";"
    elif isinstance(value, Enum):
        _encode_into(value.value, out)
    else:
        raise CryptoError(f"cannot canonically encode {cls.__name__}")


@dataclass(frozen=True)
class Signature:
    """An HMAC tag binding ``signer`` to a payload digest."""

    signer: str
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != 32:
            raise CryptoError("signature tag must be 32 bytes")


def sign(identity: Identity, payload: Any) -> Signature:
    """Sign ``payload`` as ``identity``.

    Signing requires the identity object (and thus its secret) — this is
    the structural unforgeability guarantee.
    """
    encoded = canonical_encode(payload)
    tag = hmac.new(identity.secret, encoded, hashlib.sha256).digest()
    return Signature(signer=identity.name, tag=tag)


def verify(keyring: KeyRing, signature: Signature, payload: Any) -> bool:
    """Check ``signature`` over ``payload`` against the registry.

    Returns ``False`` for unknown signers or non-matching tags (never
    raises for a *failed* check; raises only for malformed inputs).
    """
    if not keyring.knows(signature.signer):
        return False
    encoded = canonical_encode(payload)
    expected = hmac.new(
        keyring.secret_of(signature.signer), encoded, hashlib.sha256
    ).digest()
    return hmac.compare_digest(expected, signature.tag)


def require_valid(keyring: KeyRing, signature: Signature, payload: Any) -> None:
    """Verify or raise :class:`SignatureError`."""
    if not verify(keyring, signature, payload):
        raise SignatureError(
            f"invalid signature claimed by {signature.signer!r}"
        )


S = TypeVar("S", bound="Signed")


@lru_cache(maxsize=None)
def _body_fields(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "signature")


@dataclass(frozen=True)
class Signed:
    """A statement signed by the party one of its fields names.

    A subclass is a frozen dataclass that declares its fields, ``KIND``
    (which keeps statements of different types from sharing a body)
    and ``SIGNER`` (the name of the field naming the signer).  The
    signature is keyword-only and covers :attr:`body`.
    """

    KIND: ClassVar[str]
    SIGNER: ClassVar[str]

    signature: Signature = field(kw_only=True)

    @property
    def body(self) -> Tuple[Any, ...]:
        """What the signature covers: ``KIND``, then every other field
        in declaration order."""
        names = _body_fields(type(self))
        return (self.KIND, *[getattr(self, name) for name in names])

    @classmethod
    def issue(cls: Type[S], identity: Identity, **values: Any) -> S:
        """Sign a new statement as ``identity``, whose name fills ``SIGNER``."""
        return cls.signed_by(identity, **values, **{cls.SIGNER: identity.name})

    @classmethod
    def signed_by(cls: Type[S], identity: Identity, **values: Any) -> S:
        """The statement ``values`` describe, signed with ``identity``'s key.

        Unlike :meth:`issue` this takes the signer field from ``values``:
        naming another party there is the own-key forgery a Byzantine
        party can make, whose tag verifies but which :meth:`valid`
        rejects.
        """
        statement = cls(signature=None, **values)
        # The body is read off the instance, so it is signed once built.
        object.__setattr__(statement, "signature", sign(identity, statement.body))
        return statement

    def valid(self, keyring: KeyRing, expected_signer: Optional[str] = None) -> bool:
        """Verify the signature, optionally pinning the named signer.

        The signature's signer must be the party the statement names:
        without this check a Byzantine party could sign, with its own
        key, a statement naming someone else, and the tag would verify.
        """
        signer = getattr(self, self.SIGNER)
        if expected_signer is not None and signer != expected_signer:
            return False
        if self.signature.signer != signer:
            return False
        return verify(keyring, self.signature, self.body)


@dataclass(frozen=True)
class SignedClaim(Signed):
    """A control-plane claim of the weak-liveness protocol.

    Escrows sign "escrowed" reports, Bob signs the commit request,
    customers sign abort requests — so notaries can verify the
    provenance of protocol inputs (external validity of the consensus).
    ``customer`` names the addressee of a claim made to one customer.
    """

    KIND = "claim"
    SIGNER = "signer"

    payment_id: str
    kind: str
    signer: str
    customer: Optional[str] = None


__all__ = [
    "Signature",
    "Signed",
    "SignedClaim",
    "canonical_encode",
    "require_valid",
    "sign",
    "verify",
]
