"""Ideal signatures, and the one signed-statement base.

Signatures are ideal, after Canetti's signing functionality: :func:`sign`
makes a fresh :class:`Signature` handle and records, in the signer's
:class:`~repro.crypto.keys.KeyRing`, who made it over which body;
:func:`verify` accepts a handle only if the ring recorded it, made by
the signer it names, over an equal body.  Nothing is encoded or hashed.
A handle compares by identity, so one built by hand, whatever signer it
names, was never recorded and never verifies: holding a signature
proves it was received.

:class:`Signed` is the one implementation of a signed statement.  A
subclass declares its fields; the base signs and verifies the body
``(KIND, *every field but signature)`` read off the instance, so a
signature binds every field and no second copy of the body exists.
Bodies compare with ``==``, so the base also refuses, when a statement
is built, any field value not exactly of its declared type: a value
whose ``__eq__`` always answers True would otherwise keep a signature
valid while it equals whatever a reader compares it with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import (
    Any,
    ClassVar,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..errors import CryptoError
from .keys import Identity, KeyRing


@dataclass(frozen=True, eq=False, slots=True)
class Signature:
    """A signature handle naming its signer.  What was signed is recorded
    in the signer's key ring under this very object."""

    signer: str


def sign(identity: Identity, body: Any) -> Signature:
    """Sign ``body`` as ``identity``: a fresh handle, recorded in the
    identity's ring.

    Signing requires the identity object — this is the structural
    unforgeability guarantee.
    """
    signature = Signature(identity.name)
    identity.ring._signatures[signature] = (identity.name, body)
    return signature


def verify(keyring: KeyRing, signature: Signature, body: Any) -> bool:
    """Whether ``keyring`` recorded ``signature`` as made by the signer
    it names over a body equal to ``body``.

    The record keeps the signer as well: a handle's field can be
    rewritten (``object.__setattr__``), the ring's record cannot.
    """
    record = keyring._signatures
    return signature in record and record[signature] == (signature.signer, body)


S = TypeVar("S", bound="Signed")


@lru_cache(maxsize=None)
def _body_fields(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "signature")


def _exact_types(hint: Any) -> Tuple[type, ...]:
    """The exact types a value of declared type ``hint`` may have.

    Subclasses are refused (a ``str`` subclass can redefine ``__eq__``);
    a ``float`` field also takes an ``int``, the same value to ``==``.
    """
    if get_origin(hint) is Union:
        return tuple(t for arg in get_args(hint) for t in _exact_types(arg))
    if hint is float:
        return (float, int)
    return (hint,)


@lru_cache(maxsize=None)
def _body_types(cls: type) -> Tuple[Tuple[str, Tuple[type, ...]], ...]:
    hints = get_type_hints(cls)
    return tuple((name, _exact_types(hints[name])) for name in _body_fields(cls))


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

    def __post_init__(self) -> None:
        """Refuse a body field not exactly of its declared type.

        A subclass with checks of its own calls this first.
        """
        for name, types in _body_types(type(self)):
            value = getattr(self, name)
            if type(value) not in types:
                raise CryptoError(
                    f"{type(self).__name__}.{name} must be "
                    f"{' or '.join(t.__name__ for t in types)}, got {value!r}"
                )

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
        party can make, whose signature verifies over the body but which
        :meth:`valid` rejects.
        """
        statement = cls(signature=None, **values)
        # The body is read off the instance, so it is signed once built.
        object.__setattr__(statement, "signature", sign(identity, statement.body))
        return statement

    def valid(self, keyring: KeyRing, expected_signer: Optional[str] = None) -> bool:
        """Verify the signature, optionally pinning the named signer.

        The signature's signer must be the party the statement names:
        without this check a Byzantine party could sign, with its own
        key, a statement naming someone else, and the signature would
        verify.  A statement a sender built without a :class:`Signature`
        (``None``, or any other object) is invalid, never an error.
        """
        signer = getattr(self, self.SIGNER)
        if expected_signer is not None and signer != expected_signer:
            return False
        signature = self.signature
        # Exactly a Signature: a subclass could redefine equality and
        # hashing to pass for a recorded handle.
        if type(signature) is not Signature or signature.signer != signer:
            return False
        return verify(keyring, signature, self.body)


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
    "sign",
    "verify",
]
