"""Integration tests: the time-bounded protocol (Theorem 1, Figure 2)."""

import pytest

from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.errors import ProtocolError
from repro.net.adversary import CertificateWithholdingAdversary, FirstWindowAdversary
from repro.net.message import MsgKind
from repro.net.timing import PartialSynchrony, Synchronous
from repro.properties import Status, check_definition1


def _run(n=3, seed=0, **kwargs):
    topo = PaymentTopology.linear(n, payment_id=f"t-{n}-{seed}")
    session = PaymentSession(topo, "timebounded", kwargs.pop("timing", Synchronous(1.0)),
                             seed=seed, **kwargs)
    return session, session.run()


class TestHonestRuns:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_bob_paid_for_all_sizes(self, n):
        _, outcome = _run(n=n)
        assert outcome.bob_paid
        assert outcome.all_participants_terminated()

    @pytest.mark.parametrize("seed", range(8))
    def test_definition1_holds_across_seeds(self, seed):
        session, outcome = _run(n=4, seed=seed, rho=0.02)
        bound = session.protocol_instance.params.global_termination_bound()
        report = check_definition1(outcome, termination_bound=bound)
        assert report.all_ok, report.summary()

    def test_all_ledgers_audit(self):
        _, outcome = _run(n=4, seed=3)
        assert all(outcome.ledger_audits.values())

    def test_termination_within_apriori_bound(self):
        session, outcome = _run(n=5, seed=1, rho=0.01)
        bound = session.protocol_instance.params.global_termination_bound()
        for name, t in outcome.termination_times.items():
            assert t is not None and t <= bound

    def test_connector_earns_commission(self):
        _, outcome = _run(n=3, seed=2)
        assert outcome.position_delta("c1") == {"X": 1}
        assert outcome.position_delta("c2") == {"X": 1}

    def test_cross_asset_payment(self):
        topo = PaymentTopology.linear(3, per_hop_assets=True)
        session = PaymentSession(topo, "timebounded", Synchronous(1.0), seed=4)
        outcome = session.run()
        assert outcome.bob_paid
        # amounts = [102 X0, 101 X1, 100 X2]: c1 receives 102 X0, pays 101 X1.
        assert outcome.position_delta("c1") == {"X0": 102, "X1": -101}

    def test_message_count_linear_in_hops(self):
        _, o2 = _run(n=2, seed=0)
        _, o4 = _run(n=4, seed=0)
        # Per added hop: G, $, P forward; chi, $ backward = 6 per hop...
        # empirically 6n messages total in honest runs.
        assert o2.messages_sent == 12
        assert o4.messages_sent == 24

    def test_needs_delay_bound(self):
        topo = PaymentTopology.linear(2)
        session = PaymentSession(
            topo, "timebounded", PartialSynchrony(gst=1.0, delta=1.0), seed=0
        )
        with pytest.raises(ProtocolError):
            session.run()


class TestBoundaries:
    def test_chi_just_inside_window_commits(self):
        # Delay Bob's chi so it arrives close to (but within) a_{n-1}.
        session, probe = _run(n=2, seed=0)
        a_last = session.protocol_instance.params.a_of(session.topology.escrow(1))
        adversary = FirstWindowAdversary(MsgKind.CERTIFICATE, delay=a_last * 0.9, count=1)
        topo = PaymentTopology.linear(2, payment_id="boundary-in")
        outcome = PaymentSession(
            topo, "timebounded", Synchronous(1.0), adversary=adversary, seed=0
        ).run()
        # Clamped to delta=1 by the synchronous model -> still in time.
        assert outcome.bob_paid

    def test_chi_beyond_synchrony_cannot_exist(self):
        """Under synchrony the model clamps any adversarial delay to
        delta, so the certificate can never miss the window."""
        adversary = FirstWindowAdversary(MsgKind.CERTIFICATE, delay=1e9, count=10)
        topo = PaymentTopology.linear(3, payment_id="boundary-clamp")
        outcome = PaymentSession(
            topo, "timebounded", Synchronous(1.0), adversary=adversary, seed=0
        ).run()
        assert outcome.bob_paid

    def test_partial_synchrony_certificate_withholding_breaks_def1(self):
        topo = PaymentTopology.linear(3, payment_id="thm2")
        outcome = PaymentSession(
            topo,
            "timebounded",
            PartialSynchrony(gst=500.0, delta=1.0),
            adversary=CertificateWithholdingAdversary(),
            seed=1,
            protocol_options={"delta": 1.0},
        ).run()
        report = check_definition1(outcome)
        assert not report.all_ok
        violated = {v.property_id.value for v in report.violations()}
        assert "L-strong" in violated
        # Bob signed chi but was never paid:
        assert outcome.chi_issued() and not outcome.bob_paid
        # Crucially: no honest ledger lost value even in the bad run.
        assert all(outcome.ledger_audits.values())
        assert outcome.refunded("c0")

    def test_no_timeout_variant_never_terminates_under_withholding(self):
        topo = PaymentTopology.linear(2, payment_id="thm2-notimeout")
        outcome = PaymentSession(
            topo,
            "timebounded",
            PartialSynchrony(gst=2_000.0, delta=1.0),
            adversary=CertificateWithholdingAdversary(),
            seed=1,
            horizon=10_000.0,
            protocol_options={"delta": 1.0, "no_timeout": True},
        ).run()
        assert not outcome.terminated("c0")  # Alice waits forever
        assert all(outcome.ledger_audits.values())  # but loses nothing


class TestByzantine:
    def test_bob_never_signs_everyone_refunded(self):
        _, outcome = _run(n=3, seed=2, byzantine={"c3": "bob_never_signs"})
        assert not outcome.chi_issued()
        for c in ("c0", "c1", "c2"):
            assert outcome.refunded(c)
        report = check_definition1(outcome)
        assert report.all_ok  # only vacuous/holds — no violations

    def test_connector_withholds_chi_hurts_only_herself(self):
        _, outcome = _run(n=3, seed=2, byzantine={"c1": "connector_withholds_chi"})
        report = check_definition1(outcome)
        assert report.all_ok
        assert outcome.refunded("c0")  # upstream escrow timed out
        assert all(outcome.ledger_audits.values())

    def test_customer_never_pays_stalls_safely(self):
        _, outcome = _run(n=2, seed=2, byzantine={"c1": "customer_never_pays"})
        assert not outcome.bob_paid
        assert outcome.refunded("c0")
        assert check_definition1(outcome).all_ok

    def test_crash_immediately_alice(self):
        _, outcome = _run(n=2, seed=2, byzantine={"c0": "crash_immediately"})
        assert not outcome.bob_paid
        assert all(outcome.ledger_audits.values())
        assert check_definition1(outcome).all_ok

    def test_forged_certificate_rejected(self):
        _, outcome = _run(n=2, seed=2, byzantine={"c1": "forge_certificate"})
        # The forged chi never convinces e0: nothing is released.
        assert not outcome.bob_paid
        assert outcome.refunded("c0")
        assert all(outcome.ledger_audits.values())
        assert check_definition1(outcome).all_ok

    def test_escrow_steals_deposit_is_outside_conditional_guarantees(self):
        _, outcome = _run(n=2, seed=2, byzantine={"e0": "escrow_steal_deposit"})
        report = check_definition1(outcome)
        # CS1 is vacuous (Alice's escrow Byzantine); nothing violated.
        assert report.all_ok
        assert report.status_of(
            __import__("repro.core.problem", fromlist=["PropertyId"]).PropertyId.CS1
        ) is Status.VACUOUS

    def test_escrow_early_timeout_with_parametrized_behavior(self):
        _, outcome = _run(
            n=3, seed=2,
            byzantine={"e1": ("escrow_early_timeout", {"factor": 0.01})},
        )
        # The rushing escrow refunds before chi returns; its customers'
        # CS clauses are conditional on IT abiding, so no violation:
        report = check_definition1(outcome)
        assert report.all_ok
        assert all(outcome.ledger_audits.values())

    def test_escrow_no_refund_keeps_lock_forever(self):
        _, outcome = _run(
            n=2, seed=2,
            byzantine={"e0": "escrow_no_refund", "c2": "bob_never_signs"},
        )
        ledger_ok = all(outcome.ledger_audits.values())
        assert ledger_ok  # value sits in the lock; conservation holds

    def test_mute_sends_behavior(self):
        _, outcome = _run(n=2, seed=2, byzantine={"e0": "mute_sends"})
        assert not outcome.bob_paid
        assert check_definition1(outcome).all_ok


class TestDrift:
    @pytest.mark.parametrize("rho", [0.0, 0.01, 0.05])
    def test_tuned_calculus_succeeds_under_drift(self, rho):
        _, outcome = _run(n=4, seed=5, rho=rho)
        assert outcome.bob_paid

    def test_naive_calculus_fails_under_worst_case_drift(self):
        from repro.clocks import extremal_clock
        topo = PaymentTopology.linear(4, payment_id="naive-drift")
        outcome = PaymentSession(
            topo,
            "timebounded",
            Synchronous(1.0, min_delay=1.0),
            seed=0,
            clocks={"e1": extremal_clock(0.05, fast=True)},
            protocol_options={
                "epsilon": 0.05,
                "rho": 0.05,
                "drift_tuned": False,
                "margin": 0.025,
                "processing_floor": 0.05,
            },
        ).run()
        report = check_definition1(outcome)
        assert not report.all_ok

    def test_tuned_calculus_same_worst_case_succeeds(self):
        from repro.clocks import extremal_clock
        topo = PaymentTopology.linear(4, payment_id="tuned-drift")
        outcome = PaymentSession(
            topo,
            "timebounded",
            Synchronous(1.0, min_delay=1.0),
            seed=0,
            clocks={"e1": extremal_clock(0.05, fast=True)},
            protocol_options={
                "epsilon": 0.05,
                "rho": 0.05,
                "drift_tuned": True,
                "margin": 0.025,
                "processing_floor": 0.05,
            },
        ).run()
        assert outcome.bob_paid
        assert check_definition1(outcome).all_ok
