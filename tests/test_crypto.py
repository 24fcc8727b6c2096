"""Unit and property-based tests: simulated crypto."""

import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.crypto.certificates import (
    Decision,
    DecisionCertificate,
    PaymentCertificate,
    QuorumCertificate,
    Vote,
)
from repro.crypto.hashlock import HashLock, Preimage, new_secret
from repro.crypto.keys import KeyRing
from repro.crypto.promises import Guarantee, PaymentPromise
from repro.crypto.signatures import Signature, Signed, SignedClaim, sign, verify
from repro.errors import CryptoError
from repro.net.timing import Synchronous


class _HandingRing(KeyRing):
    """A ring that hands a test, by name, the identity it issued for it.

    A :class:`KeyRing` issues each name once; the code that assembles a
    run's world keeps what it was issued, as this ring does for the
    tests below.
    """

    def __init__(self):
        super().__init__()
        self.identities = {}

    def create(self, name):
        if name not in self.identities:
            self.identities[name] = super().create(name)
        return self.identities[name]


@pytest.fixture()
def ring():
    ring = _HandingRing()
    for name in ("alice", "bob", "eve"):
        ring.create(name)
    return ring


class TestSignatures:
    def test_sign_verify_roundtrip(self, ring):
        alice = ring.create("alice")
        sig = sign(alice, {"msg": "hello"})
        assert verify(ring, sig, {"msg": "hello"})

    def test_tampered_payload_fails(self, ring):
        alice = ring.create("alice")
        sig = sign(alice, {"msg": "hello"})
        assert not verify(ring, sig, {"msg": "hacked"})

    def test_unknown_signer_fails(self, ring):
        sig = Signature("nobody")
        assert not verify(ring, sig, {"x": 1})

    def test_wrong_key_cannot_impersonate(self, ring):
        eve = ring.create("eve")
        sign(eve, {"msg": "hi"})
        forged = Signature("alice")
        assert not verify(ring, forged, {"msg": "hi"})

    def test_hand_built_handle_never_verifies(self, ring):
        """A handle is the record of one signing, not a name: a handle
        naming the signer of a body it did sign proves nothing."""
        alice = ring.create("alice")
        assert verify(ring, sign(alice, ("x", 1.5)), ("x", 1.5))
        assert not verify(ring, Signature("alice"), ("x", 1.5))

    def test_signature_does_not_verify_in_another_ring(self, ring):
        other = KeyRing()
        for name in ("alice", "bob", "eve"):
            other.create(name)
        sig = sign(ring.create("alice"), ("x", 1.5))
        assert verify(ring, sig, ("x", 1.5))
        assert not verify(other, sig, ("x", 1.5))
        cert = PaymentCertificate.issue(ring.create("bob"), payment_id="p")
        assert cert.valid(ring)
        assert not cert.valid(other)

    def test_signed_claim_roundtrip(self, ring):
        claim = SignedClaim.issue(ring.create("alice"), payment_id="p", kind="escrowed")
        assert claim.signer == "alice"
        assert claim.valid(ring)
        assert claim.valid(ring, expected_signer="alice")
        assert not claim.valid(ring, expected_signer="bob")

    def test_signed_claim_body_is_bound(self, ring):
        claim = SignedClaim.issue(ring.create("alice"), payment_id="p", kind="escrowed")
        tampered = replace(claim, payment_id="q")
        assert not tampered.valid(ring)


#: Two distinct values per field type of a signed statement.
SAMPLES = {
    "str": ("alice", "bob"),
    "Optional[str]": ("alice", None),
    "float": (1.5, 2.5),
    "Decision": (Decision.COMMIT, Decision.ABORT),
}

def _sample_statement(cls, identity, signer):
    """A ``cls`` statement of sample values naming ``signer``, signed
    with ``identity``'s key."""
    return cls.signed_by(identity, **{
        f.name: signer if f.name == cls.SIGNER else SAMPLES[f.type][0]
        for f in fields(cls)
        if f.name != "signature"
    })


class _AlwaysEqual:
    """A value equal to every other."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0


class _LooseStr(str):
    """A ``str`` whose equality answers True to everything."""

    def __eq__(self, other):
        return True

    __hash__ = str.__hash__


SIGNED_FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in Signed.__subclasses__()
    for f in fields(cls)
    if f.name != "signature"
]


class TestSigned:
    def test_every_signed_type_is_a_signed_statement(self):
        assert set(Signed.__subclasses__()) == {
            PaymentCertificate, DecisionCertificate, Vote,
            Guarantee, PaymentPromise, SignedClaim,
        }

    @pytest.mark.parametrize("cls, tampered", SIGNED_FIELDS)
    def test_signature_binds_every_field(self, ring, cls, tampered):
        """Changing any one field invalidates the signature.

        Signed bodies compare with ``==``, which takes ``1``, ``1.0`` and
        ``True`` (or ``0.0`` and ``-0.0``) for one value.  That is moot
        while every field is declared ``str``, ``Optional[str]``,
        ``float`` or ``Decision``, and this test pins those types: a
        field of any other declared type has no ``SAMPLES`` entry and
        fails here.
        """
        statement = cls.issue(ring.create("alice"), **{
            f.name: SAMPLES[f.type][0]
            for f in fields(cls)
            if f.name not in ("signature", cls.SIGNER)
        })
        assert statement.valid(ring)
        other = SAMPLES[tampered.type][1]
        assert not replace(statement, **{tampered.name: other}).valid(ring)

    @pytest.mark.parametrize("cls", Signed.__subclasses__(), ids=lambda c: c.__name__)
    def test_own_key_forgery_rejected(self, ring, cls):
        """Eve signs, with her own key, a statement naming Alice: the
        signature verifies over the body, so only the signer check
        rejects it."""
        forged = cls.signed_by(ring.create("eve"), **{
            f.name: "alice" if f.name == cls.SIGNER else SAMPLES[f.type][0]
            for f in fields(cls)
            if f.name != "signature"
        })
        assert verify(ring, forged.signature, forged.body)
        assert not forged.valid(ring)
        assert not forged.valid(ring, expected_signer="alice")

    @pytest.mark.parametrize("cls", Signed.__subclasses__(), ids=lambda c: c.__name__)
    def test_rewritten_handle_rejected(self, ring, cls):
        """Eve's own-key forgery with her handle's frozen signer field
        rewritten to Alice: the ring recorded Eve as the signer."""
        forged = _sample_statement(cls, ring.create("eve"), "alice")
        object.__setattr__(forged.signature, "signer", "alice")
        assert not verify(ring, forged.signature, forged.body)
        assert not forged.valid(ring)

    @pytest.mark.parametrize("cls", Signed.__subclasses__(), ids=lambda c: c.__name__)
    @pytest.mark.parametrize("signature", [
        pytest.param(None, id="none"),
        pytest.param(Signature("alice"), id="hand-built"),
        pytest.param(b"\x00" * 32, id="bytes"),
    ])
    def test_statement_without_its_signature_is_invalid(self, ring, cls, signature):
        """A sender may ship any object as the signature of a statement
        its signer really signed; the reader gets False, not an error."""
        signed = _sample_statement(cls, ring.create("alice"), "alice")
        unsigned = replace(signed, signature=signature)
        assert signed.valid(ring)
        assert not unsigned.valid(ring)
        assert not unsigned.valid(ring, expected_signer="alice")

    def test_lookalike_handle_rejected(self, ring):
        """A handle subclass that equals everything and hashes like Bob's
        handle finds that handle's record.  Every participant holds the
        ring, so one could search for the hash by calling ``valid`` and
        claim a χ it never received; only an exact ``Signature`` counts."""
        cert = PaymentCertificate.issue(ring.create("bob"), payment_id="p")
        real = cert.signature

        class Lookalike(type(real)):
            __slots__ = ()

            def __eq__(self, other):
                return True

            def __hash__(self):
                return hash(real)

        claimed = replace(cert, signature=Lookalike("bob"))
        assert verify(ring, claimed.signature, claimed.body)
        assert not claimed.valid(ring)

    @pytest.mark.parametrize("cls", [DecisionCertificate, Vote], ids=lambda c: c.__name__)
    def test_decision_must_be_a_decision(self, ring, cls):
        """A ``Decision`` equals its string value, so a plain ``"commit"``
        swapped in would keep the signature valid while every reader
        tests ``is Decision.COMMIT``: construction refuses it."""
        signed = cls.issue(ring.create("alice"), payment_id="p", decision=Decision.COMMIT)
        with pytest.raises(CryptoError):
            replace(signed, decision="commit")
        with pytest.raises(CryptoError):
            cls.issue(ring.create("alice"), payment_id="p", decision="abort")

    @pytest.mark.parametrize("cls, field", SIGNED_FIELDS)
    @pytest.mark.parametrize("impostor", [
        pytest.param(_AlwaysEqual(), id="always-equal"),
        pytest.param(_LooseStr("alice"), id="str-subclass"),
        pytest.param(True, id="bool"),
    ])
    def test_every_field_refuses_a_value_not_of_its_type(
        self, ring, cls, field, impostor
    ):
        """Bodies compare with ``==``: a value equal to everything would
        keep the signature valid and equal every id a reader compares
        it with, so no statement can be built around one."""
        statement = _sample_statement(cls, ring.create("alice"), "alice")
        with pytest.raises(CryptoError):
            replace(statement, **{field.name: impostor})

    @pytest.mark.parametrize(
        "cls", [Guarantee, PaymentPromise], ids=lambda c: c.__name__
    )
    def test_a_float_field_takes_an_int(self, ring, cls):
        """``5`` and ``5.0`` are one value to ``==``, so a window may be
        written either way."""
        statement = cls.issue(ring.create("alice"), **{
            f.name: 5 if f.type == "float" else SAMPLES[f.type][0]
            for f in fields(cls)
            if f.name not in ("signature", cls.SIGNER)
        })
        assert statement.valid(ring)


class TestKeyRing:
    def test_each_identity_is_issued_once(self):
        ring = KeyRing()
        alice = ring.create("alice")
        with pytest.raises(CryptoError):
            ring.create("alice")
        assert ring.create("bob").name == "bob"
        assert PaymentCertificate.issue(alice, payment_id="p").valid(ring)

    @pytest.mark.parametrize(
        "protocol", ["timebounded", "weak", "htlc", "certified"]
    )
    def test_holding_the_ring_yields_no_identity(self, protocol):
        """Every participant holds the ring to verify; none can take
        Bob's identity from it and sign his χ."""
        topology = PaymentTopology.linear(3)
        session = PaymentSession(topology, protocol, Synchronous(1.0), seed=0)
        session.launch()
        with pytest.raises(CryptoError):
            session.env.keyring.create(topology.bob)

    def test_a_dropped_ring_is_freed_by_reference_counting(
        self, refcounting_only
    ):
        ring = KeyRing()
        chi = PaymentCertificate.issue(ring.create("bob"), payment_id="p")
        vote = Vote.issue(ring.create("n0"), payment_id="p", decision=Decision.COMMIT)
        assert chi.valid(ring) and vote.valid(ring)
        watched = weakref.ref(ring)
        del ring, chi, vote
        assert watched() is None


class TestPaymentCertificate:
    def test_issue_and_verify(self, ring):
        cert = PaymentCertificate.issue(ring.create("bob"), payment_id="pay1")
        assert cert.valid(ring)
        assert cert.valid(ring, expected_signer="bob")

    def test_wrong_expected_issuer(self, ring):
        cert = PaymentCertificate.issue(ring.create("bob"), payment_id="pay1")
        assert not cert.valid(ring, expected_signer="alice")

    def test_forgery_with_own_key_rejected(self, ring):
        """Eve signs a body claiming Bob issued it — must fail."""
        eve = ring.create("eve")
        forged = PaymentCertificate.signed_by(eve, payment_id="pay1", issuer="bob")
        assert verify(ring, forged.signature, forged.body)
        assert not forged.valid(ring)
        assert not forged.valid(ring, expected_signer="bob")


class TestDecisionCertificates:
    def test_issue_and_verify(self, ring):
        cert = DecisionCertificate.issue(
            ring.create("alice"), payment_id="p", decision=Decision.COMMIT
        )
        assert cert.valid(ring)
        assert cert.is_commit

    def test_cross_issuer_forgery_rejected(self, ring):
        eve = ring.create("eve")
        forged = DecisionCertificate.signed_by(
            eve, payment_id="p", decision=Decision.COMMIT, issuer="alice"
        )
        assert verify(ring, forged.signature, forged.body)
        assert not forged.valid(ring)


class TestQuorumCertificates:
    def _votes(self, ring, names, decision=Decision.COMMIT, payment="p"):
        return [
            Vote.issue(ring.create(n), payment_id=payment, decision=decision)
            for n in names
        ]

    def test_quorum_reached(self, ring):
        committee = ["n0", "n1", "n2", "n3"]
        votes = self._votes(ring, committee[:3])
        qc = QuorumCertificate("p", Decision.COMMIT, tuple(votes))
        assert qc.valid(ring, committee, threshold=3)

    def test_below_threshold_invalid(self, ring):
        committee = ["n0", "n1", "n2", "n3"]
        votes = self._votes(ring, committee[:2])
        qc = QuorumCertificate("p", Decision.COMMIT, tuple(votes))
        assert not qc.valid(ring, committee, threshold=3)

    def test_duplicate_votes_counted_once(self, ring):
        committee = ["n0", "n1", "n2", "n3"]
        v = self._votes(ring, ["n0"])[0]
        qc = QuorumCertificate("p", Decision.COMMIT, (v, v, v))
        assert not qc.valid(ring, committee, threshold=2)

    def test_non_committee_votes_ignored(self, ring):
        committee = ["n0", "n1"]
        votes = self._votes(ring, ["n0", "outsider1", "outsider2"])
        qc = QuorumCertificate("p", Decision.COMMIT, tuple(votes))
        assert not qc.valid(ring, committee, threshold=2)

    def test_mismatched_decision_votes_ignored(self, ring):
        committee = ["n0", "n1", "n2"]
        votes = self._votes(ring, ["n0", "n1"], decision=Decision.ABORT)
        qc = QuorumCertificate("p", Decision.COMMIT, tuple(votes))
        assert not qc.valid(ring, committee, threshold=2)

    def test_vote_signer_must_match_notary(self, ring):
        eve = ring.create("eve")
        ring.create("n0")
        forged = Vote.signed_by(
            eve, payment_id="p", decision=Decision.COMMIT, notary="n0"
        )
        assert verify(ring, forged.signature, forged.body)
        assert not forged.valid(ring)

    def test_zero_threshold_rejected(self, ring):
        qc = QuorumCertificate("p", Decision.COMMIT, ())
        with pytest.raises(CryptoError):
            qc.valid(ring, ["n0"], threshold=0)


class TestPromises:
    def test_guarantee_roundtrip(self, ring):
        g = Guarantee.issue(ring.create("alice"), payment_id="p", customer="bob", d=5.0)
        assert g.valid(ring)
        assert g.d == 5.0

    def test_guarantee_requires_positive_window(self, ring):
        with pytest.raises(CryptoError):
            Guarantee.issue(ring.create("alice"), payment_id="p", customer="bob", d=0.0)

    def test_windows_are_checked_on_every_construction(self, ring):
        g = Guarantee.issue(ring.create("alice"), payment_id="p", customer="bob", d=5.0)
        with pytest.raises(CryptoError):
            replace(g, d=0.0)
        with pytest.raises(CryptoError):
            PaymentPromise(
                payment_id="p", escrow="alice", customer="bob", a=-1.0,
                issued_at_local=0.0, signature=g.signature,
            )

    def test_promise_roundtrip_and_deadline(self, ring):
        p = PaymentPromise.issue(
            ring.create("alice"), payment_id="p", customer="bob", a=4.0, issued_at_local=10.0
        )
        assert p.valid(ring)
        assert p.deadline_local() == 14.0

    def test_promise_signer_must_be_escrow(self, ring):
        forged = PaymentPromise.signed_by(
            ring.create("eve"), payment_id="p", escrow="alice", customer="bob",
            a=4.0, issued_at_local=0.0,
        )
        assert verify(ring, forged.signature, forged.body)
        assert not forged.valid(ring)


class TestHashlock:
    def test_preimage_opens_own_lock(self):
        secret = new_secret("s1")
        assert secret.lock().matches(secret)

    def test_wrong_preimage_rejected(self):
        assert not new_secret("s1").lock().matches(new_secret("s2"))

    def test_new_secret_deterministic(self):
        assert new_secret("x").value == new_secret("x").value

    def test_digest_length_enforced(self):
        with pytest.raises(CryptoError):
            HashLock(b"short")

    @given(st.binary(min_size=1, max_size=64))
    def test_any_preimage_roundtrip(self, raw):
        p = Preimage(raw)
        assert p.lock().matches(p)
