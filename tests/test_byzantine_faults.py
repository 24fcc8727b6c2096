"""Tests: Byzantine behaviours and the behaviour registry."""

import pytest

from repro.byzantine.behaviors import SPEC_TRANSFORMS, apply_behavior, register_behavior
from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.errors import ProtocolError
from repro.net.timing import Synchronous
from repro.properties import check_definition1
from repro.protocols.timebounded import bob_spec


class TestCrashBehavior:
    def test_crashed_participant_mid_protocol_is_safe(self):
        """Crash Chloe mid-run: money must still be conserved and the
        conditional guarantees must stay clean."""
        topo = PaymentTopology.linear(3, payment_id="crash-mid")
        session = PaymentSession(topo, "timebounded", Synchronous(1.0), seed=5,
                                 byzantine={"c1": "crash_immediately"})
        outcome = session.run()
        assert all(outcome.ledger_audits.values())
        assert check_definition1(outcome).all_ok


class TestBehaviorRegistry:
    def test_known_behaviors_present(self):
        for name in (
            "crash_immediately",
            "bob_never_signs",
            "connector_withholds_chi",
            "customer_never_pays",
            "escrow_no_refund",
            "escrow_early_timeout",
            "escrow_steal_deposit",
            "forge_certificate",
            "mute_sends",
        ):
            assert name in SPEC_TRANSFORMS

    def test_unknown_behavior_rejected(self):
        spec = bob_spec("bob", "e0")
        with pytest.raises(ProtocolError):
            apply_behavior(spec, "no_such_attack", {})

    def test_callable_behavior_applied(self):
        spec = bob_spec("bob", "e0")
        called = {}

        def custom(s, ctx):
            called["yes"] = True
            return s

        apply_behavior(spec, custom, {})
        assert called.get("yes")

    def test_parametrized_behavior_tuple(self):
        spec = __import__(
            "repro.protocols.timebounded.escrow", fromlist=["escrow_spec"]
        ).escrow_spec("e0", "c0", "c1")
        out = apply_behavior(spec, ("escrow_early_timeout", {"factor": 0.5}), {})
        timeout = out.states["await_certificate"].timeouts[0]
        assert "0.5" in timeout.label

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ProtocolError):
            register_behavior("crash_immediately")(lambda s, c: s)

    def test_crash_at_unknown_state_rejected(self):
        spec = bob_spec("bob", "e0")
        with pytest.raises(ProtocolError):
            apply_behavior(spec, ("crash_at_state", {"state": "ghost"}), {})
