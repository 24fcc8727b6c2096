"""Integration tests: the weak-liveness protocol (Theorem 3)."""

import pytest

from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.crypto.certificates import Decision
from repro.net.message import MsgKind
from repro.net.timing import PartialSynchrony, Synchronous
from repro.properties import check_definition2
from repro.protocols.weak.tm import TMVotes, TrustedPartyBackend


def _run(n=3, seed=0, tm="trusted", patience=5000.0, timing=None, horizon=100_000.0, **kwargs):
    topo = PaymentTopology.linear(n, payment_id=f"w-{n}-{seed}")
    options = {
        "tm": tm,
        "patience_setup": patience,
        "patience_decision": patience,
    }
    options.update(kwargs.pop("protocol_options", {}))
    session = PaymentSession(
        topo,
        "weak",
        timing or PartialSynchrony(gst=20.0, delta=1.0),
        seed=seed,
        horizon=horizon,
        protocol_options=options,
        **kwargs,
    )
    return session.run()


ESC, REQ, ABT = MsgKind.ESCROWED, MsgKind.COMMIT_REQUEST, MsgKind.ABORT_REQUEST


class TestTMVotes:
    """The one TM decision rule every realisation runs (trusted party,
    contract, notary committee, certified log)."""

    @pytest.mark.parametrize(
        "sinks, votes, decided_by, decision",
        [
            ("bob", [(ESC, "e0"), (ESC, "e1"), (REQ, "bob")], 2, Decision.COMMIT),
            ("bob", [(ESC, "e0"), (REQ, "bob")], None, None),
            ("bob", [(ESC, "e0"), (ESC, "e1")], None, None),
            ("bob", [(ABT, "anyone"), (ESC, "e0"), (ESC, "e1"), (REQ, "bob")],
             0, Decision.ABORT),
            ("bob", [(ABT, "x"), (ABT, "y")], 0, Decision.ABORT),
            ("bob", [(ESC, "e0"), (ESC, "e1"), (REQ, "bob"), (ABT, "bob")],
             2, Decision.COMMIT),
            ("bob", [(ESC, "intruder"), (ESC, "e0"), (REQ, "bob")], None, None),
            ("bob", [(ESC, "e0"), (ESC, "e1"), (REQ, "eve")], None, None),
            ("bob", [(ESC, "e0"), (ESC, "e0"), (REQ, "bob")], None, None),
            (["b0", "b1"], [(ESC, "e0"), (ESC, "e1"), (REQ, "b0")], None, None),
            (["b0", "b1"], [(REQ, "b0"), (ESC, "e0"), (REQ, "b1"), (ESC, "e1")],
             3, Decision.COMMIT),
            ("bob", [("escrowed", "e0"), ("escrowed", "e1"),
                     ("commit_request", "bob")], 2, Decision.COMMIT),
        ],
        ids=[
            "commit-needs-every-report-and-request",
            "commit-waits-for-every-report",
            "commit-waits-for-the-request",
            "first-abort-wins",
            "decision-set-once-abort",
            "decision-set-once-commit",
            "non-member-report-does-not-count",
            "non-member-request-does-not-count",
            "repeated-report-counts-once",
            "two-sinks-one-request-waits",
            "two-sinks-commit",
            "claim-kind-strings",
        ],
    )
    def test_rule(self, sinks, votes, decided_by, decision):
        tm = TMVotes(["e0", "e1"], sinks)
        returned = [tm.add(kind, sender) for kind, sender in votes]
        assert tm.decision is decision
        # add() reports the decision once, on the vote that renders it.
        expected = [None] * len(votes)
        if decided_by is not None:
            expected[decided_by] = decision
        assert returned == expected


class TestHonestCommit:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_patient_customers_commit(self, n):
        outcome = _run(n=n, seed=1)
        assert outcome.bob_paid
        assert outcome.decision_kinds_issued() == {"commit"}
        assert outcome.all_participants_terminated()

    @pytest.mark.parametrize("seed", range(6))
    def test_definition2_holds(self, seed):
        outcome = _run(seed=seed)
        report = check_definition2(outcome, patient=True)
        assert report.all_ok, report.summary()

    def test_alice_holds_commit_certificate(self):
        outcome = _run(seed=2)
        assert outcome.holds_certificate("c0", "commit")

    def test_connectors_earn_commission_on_commit(self):
        outcome = _run(seed=2)
        assert outcome.position_delta("c1") == {"X": 1}


class TestAbortPaths:
    def test_impatient_customers_abort_safely(self):
        outcome = _run(seed=3, patience=2.0, timing=PartialSynchrony(gst=500.0, delta=1.0))
        assert outcome.decision_kinds_issued() == {"abort"}
        assert not outcome.bob_paid
        for c in ("c0", "c1", "c2"):
            assert outcome.refunded(c)
        assert outcome.all_participants_terminated()
        report = check_definition2(outcome, patient=False)
        assert report.all_ok, report.summary()

    def test_bob_holds_abort_certificate(self):
        outcome = _run(seed=3, patience=2.0, timing=PartialSynchrony(gst=500.0, delta=1.0))
        assert outcome.holds_certificate("c3", "abort")

    def test_mixed_patience_first_mover_decides(self):
        topo = PaymentTopology.linear(2, payment_id="mixed")
        outcome = PaymentSession(
            topo,
            "weak",
            PartialSynchrony(gst=300.0, delta=1.0),
            seed=4,
            horizon=100_000.0,
            protocol_options={
                "tm": "trusted",
                "patience_setup": 5000.0,
                "patience_decision": 5000.0,
                "patience_overrides": {"c1": (3.0, 3.0)},
            },
        ).run()
        assert outcome.decision_kinds_issued() == {"abort"}
        assert check_definition2(outcome, patient=False).all_ok


class TestByzantineCustomers:
    @pytest.mark.parametrize(
        "byz",
        [
            {"c0": "abort_immediately"},
            {"c1": "never_deposit"},
            {"c3": "bob_never_commit"},
        ],
    )
    def test_deviations_end_in_safe_abort(self, byz):
        outcome = _run(seed=5, patience=15.0, byzantine=byz)
        assert not outcome.bob_paid
        report = check_definition2(outcome, patient=False)
        assert report.all_ok, report.summary()
        assert all(outcome.ledger_audits.values())

    def test_abort_immediately_never_commits(self):
        for seed in range(5):
            outcome = _run(seed=seed, patience=15.0, byzantine={"c0": "abort_immediately"})
            assert "commit" not in outcome.decision_kinds_issued()


class TestBackends:
    def test_contract_tm_commits_with_finality_latency(self):
        outcome = _run(
            seed=6,
            tm=("contract", {"block_interval": 1.0, "confirmations": 2}),
            timing=Synchronous(1.0),
        )
        assert outcome.bob_paid
        # Finality: >= 1 block inclusion + 2 confirmations:
        assert outcome.end_time >= 3.0

    def test_committee_tm_commits(self):
        outcome = _run(
            seed=7,
            tm=("committee", {"n_notaries": 4, "round_duration": 5.0}),
            timing=PartialSynchrony(gst=10.0, delta=1.0),
        )
        assert outcome.bob_paid
        assert outcome.decision_kinds_issued() == {"commit"}

    def test_committee_tm_aborts_on_impatience(self):
        outcome = _run(
            seed=8,
            tm=("committee", {"n_notaries": 4, "round_duration": 5.0}),
            patience=10.0,
            timing=PartialSynchrony(gst=300.0, delta=1.0),
        )
        assert outcome.decision_kinds_issued() == {"abort"}
        assert check_definition2(outcome, patient=False).all_ok

    def test_equivocating_trusted_tm_breaks_cc(self):
        outcome = _run(seed=9, tm=TrustedPartyBackend(equivocate=True), timing=Synchronous(1.0))
        assert outcome.decision_kinds_issued() == {"commit", "abort"}
        report = check_definition2(outcome, patient=True)
        violated = {v.property_id.value for v in report.violations()}
        assert "CC" in violated

    def test_certified_protocol_commits(self):
        topo = PaymentTopology.linear(2, payment_id="cert")
        outcome = PaymentSession(
            topo,
            "certified",
            Synchronous(1.0),
            seed=10,
            horizon=50_000.0,
            protocol_options={
                "patience_setup": 5000.0,
                "patience_decision": 5000.0,
            },
        ).run()
        assert outcome.bob_paid
        assert outcome.decision_kinds_issued() == {"commit"}

    def test_certified_protocol_abort_first_wins(self):
        topo = PaymentTopology.linear(2, payment_id="cert-abort")
        outcome = PaymentSession(
            topo,
            "certified",
            Synchronous(1.0),
            seed=10,
            horizon=50_000.0,
            byzantine={"c0": "abort_immediately"},
            protocol_options={
                "patience_setup": 5000.0,
                "patience_decision": 5000.0,
            },
        ).run()
        assert outcome.decision_kinds_issued() == {"abort"}
        assert all(outcome.ledger_audits.values())


class TestEscrowSafety:
    def test_escrow_never_releases_without_decision(self):
        outcome = _run(seed=11, patience=3.0, timing=PartialSynchrony(gst=400.0, delta=1.0))
        # Whatever happened, conservation holds at every escrow:
        assert all(outcome.ledger_audits.values())

    def test_weak_liveness_patient_always_pays(self):
        for seed in range(5):
            outcome = _run(seed=seed, patience=5000.0)
            assert outcome.bob_paid
