"""Session API surface, protocol registry, and cross-cutting integration."""

import pytest

from repro.clocks import DriftingClock
from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.errors import ProtocolError
from repro.net.timing import Asynchronous, PartialSynchrony, Synchronous
from repro.properties import check_definition2
from repro.protocols.base import available_protocols, create_protocol


class TestRegistry:
    def test_builtins_registered(self):
        names = available_protocols()
        for expected in ("timebounded", "weak", "htlc", "certified"):
            assert expected in names

    def test_unknown_protocol_rejected(self):
        topo = PaymentTopology.linear(1)
        session = PaymentSession(topo, "no-such-protocol", Synchronous(1.0))
        with pytest.raises(ProtocolError):
            session.run()

    def test_undeclared_session_option_is_refused(self):
        """A misspelt option fails the session instead of running as if
        it were never given."""
        session = PaymentSession(
            PaymentTopology.linear(2), "weak", Synchronous(1.0),
            protocol_options={"patience": 5.0},
        )
        with pytest.raises(ProtocolError, match="has no option 'patience'"):
            session.run()

    def test_undeclared_option_read_is_refused(self):
        from repro.protocols.timebounded import TimeBoundedProtocol

        class Sloppy(TimeBoundedProtocol):
            def build(self):
                self.option("undeclared")

        session = PaymentSession(
            PaymentTopology.linear(1), Sloppy, Synchronous(1.0)
        )
        with pytest.raises(ProtocolError, match="has no option 'undeclared'"):
            session.run()

    def test_constructor_checks_the_topology(self):
        from repro.protocols.base import PaymentProtocol
        from repro.scenarios.registry import build_topology

        class PathOnly(PaymentProtocol):
            name = "pathonly-test"

            def build(self):
                raise AssertionError("an unsupported topology must fail first")

        session = PaymentSession(
            build_topology("hub-2"), PathOnly, Synchronous(1.0)
        )
        with pytest.raises(ProtocolError, match="does not support this topology"):
            session.run()

    def test_sweep_defaults_are_declared_options(self):
        from repro.protocols.base import (
            PaymentProtocol, _REGISTRY, register_protocol,
        )

        class Stale(PaymentProtocol):
            name = "stale-test"
            definition = 2
            known_options = frozenset({"patience_setup"})
            sweep_defaults = {"patience": 5.0}

            def build(self):
                pass

        with pytest.raises(ProtocolError, match="has no option 'patience'"):
            register_protocol(Stale)
        assert "stale-test" not in _REGISTRY

    def test_factory_callable_accepted(self):
        from repro.protocols.timebounded import TimeBoundedProtocol

        topo = PaymentTopology.linear(1)
        session = PaymentSession(
            topo, lambda env: TimeBoundedProtocol(env), Synchronous(1.0)
        )
        assert session.run().bob_paid


class TestSessionConfiguration:
    def test_clock_overrides_pin_specific_participants(self):
        topo = PaymentTopology.linear(2)
        fast = DriftingClock(rate=1.04)
        session = PaymentSession(
            topo, "timebounded", Synchronous(1.0), seed=1,
            rho=0.05, clocks={"e0": fast},
        )
        session.run()
        assert session.env.clocks["e0"] is fast
        # Others sampled within the rho bound:
        for name, clock in session.env.clocks.items():
            if name != "e0":
                assert clock.within_bound(0.05)

    def test_default_clocks_are_perfect_without_rho(self):
        topo = PaymentTopology.linear(1)
        session = PaymentSession(topo, "timebounded", Synchronous(1.0))
        session.run()
        assert all(c.rate == 1.0 for c in session.env.clocks.values())

    def test_seed_isolation_between_sessions(self):
        topo = PaymentTopology.linear(2)
        o1 = PaymentSession(topo, "timebounded", Synchronous(1.0), seed=1).run()
        o2 = PaymentSession(topo, "timebounded", Synchronous(1.0), seed=2).run()
        assert o1.bob_paid and o2.bob_paid
        assert o1.end_time != o2.end_time  # different delay draws

    def test_protocol_options_are_visible_to_protocol(self):
        topo = PaymentTopology.linear(1)
        session = PaymentSession(
            topo, "timebounded", Synchronous(1.0),
            protocol_options={"margin": 2.0},
        )
        session.run()
        assert session.protocol_instance.params.margin == 2.0

    def test_every_entry_point_defaults_to_one_horizon(self):
        """A run that never settles reports the horizon as its latency,
        so it must not depend on the entry point."""
        from inspect import signature

        from repro.deals.common import DealSession
        from repro.scenarios import registry
        from repro.verification.explorer import explore_payment

        session = PaymentSession(PaymentTopology.linear(2), "weak", Synchronous(1.0))
        defaults = {
            "PaymentSession": session.horizon,
            "explore_payment": signature(explore_payment).parameters["horizon"].default,
            "DealSession": signature(DealSession).parameters["horizon"].default,
            "registry": registry.DEFAULT_HORIZON,
        }
        assert len(set(defaults.values())) == 1, defaults

    def test_empty_protocol_rejected(self):
        from repro.protocols.base import PaymentProtocol

        class Hollow(PaymentProtocol):
            name = "hollow-test"

            def build(self):
                pass

        topo = PaymentTopology.linear(1)
        session = PaymentSession(topo, lambda env: Hollow(env), Synchronous(1.0))
        with pytest.raises(ProtocolError):
            session.run()


class TestCrossTimingIntegration:
    def test_weak_protocol_under_asynchrony_still_safe(self):
        """Even with unbounded (finite) delays the weak protocol's
        safety holds; with enormous patience it even commits."""
        topo = PaymentTopology.linear(2, payment_id="async")
        outcome = PaymentSession(
            topo,
            "weak",
            Asynchronous(mean_delay=2.0, max_delay=100.0),
            seed=4,
            horizon=500_000.0,
            protocol_options={
                "tm": "trusted",
                "patience_setup": 100_000.0,
                "patience_decision": 100_000.0,
            },
        ).run()
        assert check_definition2(outcome, patient=True).all_ok
        assert outcome.bob_paid

    def test_timebounded_under_asynchrony_with_assumed_delta_safe_but_unreliable(self):
        """Running the synchronous protocol on an asynchronous network
        (with a guessed delta) may fail to pay — but never loses honest
        money (that requires only the escrows' local behaviour)."""
        topo = PaymentTopology.linear(2, payment_id="async-tb")
        outcome = PaymentSession(
            topo,
            "timebounded",
            Asynchronous(mean_delay=5.0, max_delay=1_000.0),
            seed=6,
            horizon=500_000.0,
            protocol_options={"delta": 1.0},
        ).run()
        assert all(outcome.ledger_audits.values())
        # Alice ends refunded or paid-with-certificate, never stranded:
        assert outcome.refunded("c0") or outcome.holds_certificate("c0", "chi")

    def test_same_topology_under_all_four_protocols(self):
        """One topology, four protocols — all leave every ledger
        conserving value."""
        for protocol, options in [
            ("timebounded", {}),
            ("htlc", {}),
            ("weak", {"tm": "trusted", "patience_setup": 1e4,
                      "patience_decision": 1e4}),
            ("certified", {"patience_setup": 1e4, "patience_decision": 1e4}),
        ]:
            topo = PaymentTopology.linear(2, payment_id=f"x-{protocol}")
            outcome = PaymentSession(
                topo, protocol, Synchronous(1.0), seed=9,
                horizon=100_000.0, protocol_options=options,
            ).run()
            assert outcome.bob_paid, protocol
            assert all(outcome.ledger_audits.values()), protocol

    def test_partial_synchrony_gst_zero_behaves_synchronously(self):
        topo = PaymentTopology.linear(2, payment_id="gst0")
        outcome = PaymentSession(
            topo, "timebounded", PartialSynchrony(gst=0.0, delta=1.0),
            seed=3, protocol_options={"delta": 1.0},
        ).run()
        assert outcome.bob_paid
