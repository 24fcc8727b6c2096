"""Unit tests: topology, timeout calculus, problem specs, outcomes."""

import pytest
from hypothesis import given, strategies as st

from repro.core.params import TimingAssumptions, compute_graph_params, h_from_hops
from repro.core.problem import (
    ALL_SPECS,
    PROPERTY_STATEMENTS,
    PropertyId,
    TIME_BOUNDED_PAYMENT,
    WEAK_LIVENESS_PAYMENT,
)
from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.errors import ParameterError, ProtocolError
from repro.ledger.asset import Amount
from repro.net.timing import Synchronous


class TestTopology:
    def test_linear_names_and_roles(self):
        topo = PaymentTopology.linear(3)
        assert topo.alice == "c0"
        assert topo.bob == "c3"
        assert topo.connectors() == ["c1", "c2"]
        assert topo.escrows() == ["e0", "e1", "e2"]
        assert len(topo.participants()) == 2 * 3 + 1

    def test_commission_structure(self):
        topo = PaymentTopology.linear(3, base_units=100, commission_units=2)
        assert [a.units for a in topo.amounts] == [104, 102, 100]

    def test_per_hop_assets(self):
        topo = PaymentTopology.linear(2, per_hop_assets=True)
        assert [a.asset for a in topo.amounts] == ["X0", "X1"]

    def test_escrow_customer_relations(self):
        topo = PaymentTopology.linear(3)
        assert (topo.edges[1].upstream, topo.edges[1].downstream) == ("c1", "c2")
        assert topo.escrows_of_customer(0) == ["e0"]
        assert topo.escrows_of_customer(3) == ["e2"]
        assert topo.escrows_of_customer(1) == ["e0", "e1"]

    def test_inverse_lookups(self):
        topo = PaymentTopology.linear(2)
        assert topo.customer_index("c1") == 1
        assert topo.escrow_index("e1") == 1
        with pytest.raises(ProtocolError):
            topo.customer_index("e0")

    def test_funding_plan_funds_each_sender(self):
        topo = PaymentTopology.linear(3)
        plan = topo.funding_plan()
        assert plan["e0"] == [("c0", topo.amounts[0])]
        assert plan["e2"] == [("c2", topo.amounts[2])]

    def test_validation(self):
        with pytest.raises(ProtocolError):
            PaymentTopology.linear(0)
        with pytest.raises(ProtocolError):
            PaymentTopology(n_escrows=2, amounts=(Amount("X", 1),))
        with pytest.raises(ProtocolError):
            PaymentTopology(n_escrows=1, amounts=(Amount("X", 0),))

    def test_describe_mentions_all(self):
        text = PaymentTopology.linear(2).describe()
        assert "c0" in text and "e1" in text and "c2" in text


def _closed_form_h(hops, t):
    """``H = 2Δ + ε + h·(4Δ + 4ε)``, written out rather than imported."""
    return 2 * t.delta + t.epsilon + hops * (4 * t.delta + 4 * t.epsilon)


class TestParams:
    def _assumptions(self, rho=0.0):
        return TimingAssumptions(delta=1.0, epsilon=0.05, rho=rho)

    def _windows(self, n, t, **kwargs):
        """Per-index ``a``/``d`` on the linear-``n`` path, ``e_0`` first."""
        topo = PaymentTopology.linear(n)
        params = compute_graph_params(topo, t, **kwargs)
        escrows = [topo.escrow(i) for i in range(n)]
        a = [params.a_of(e) for e in escrows]
        d = [params.d_of(e) for e in escrows]
        return params, a, d

    def test_h_recurrence(self):
        # H_{n-1} = 2Δ + ε; H_i = H_{i+1} + 4Δ + 4ε (ρ = 0: a_i = H_i)
        _, a, _ = self._windows(3, self._assumptions())
        assert a[2] == pytest.approx(2.05)
        assert a[1] == pytest.approx(2.05 + 4.2)
        assert a[0] == pytest.approx(2.05 + 8.4)

    def test_windows_decrease_downstream(self):
        _, a, _ = self._windows(5, self._assumptions())
        assert a == sorted(a, reverse=True)

    def test_drift_tuned_inflates(self):
        t = self._assumptions(rho=0.05)
        _, naive_a, naive_d = self._windows(3, t, drift_tuned=False)
        _, tuned_a, tuned_d = self._windows(3, t, drift_tuned=True)
        for i in range(3):
            assert tuned_a[i] == pytest.approx(1.05 * naive_a[i])
            assert tuned_d[i] > naive_d[i]

    def test_d_covers_a_plus_processing(self):
        _, a, d = self._windows(3, self._assumptions(rho=0.02))
        for i in range(3):
            assert d[i] >= a[i] + 2 * 0.05

    def test_margin_added_everywhere(self):
        _, base, _ = self._windows(3, self._assumptions())
        _, padded, _ = self._windows(3, self._assumptions(), margin=1.0)
        for i in range(3):
            assert padded[i] >= base[i] + 1.0

    def test_global_termination_bound_exceeds_components(self):
        params, a, _ = self._windows(4, self._assumptions(rho=0.01))
        latest_deposit = 4 * (2 * 1.0 + 2 * 0.05)  # D_3 = 4·(2Δ + 2ε)
        assert params.global_termination_bound() > a[0]
        assert params.global_termination_bound() > latest_deposit

    def test_validation(self):
        with pytest.raises(ParameterError):
            TimingAssumptions(delta=0.0, epsilon=0.1)
        with pytest.raises(ParameterError):
            TimingAssumptions(delta=1.0, epsilon=-1.0)
        with pytest.raises(ParameterError):
            TimingAssumptions(delta=1.0, epsilon=0.0, rho=1.0)
        with pytest.raises(ParameterError):
            compute_graph_params(
                PaymentTopology.linear(2), self._assumptions(), margin=-1.0
            )
        with pytest.raises(ParameterError):
            h_from_hops(-1, self._assumptions())

    @given(
        n=st.integers(min_value=1, max_value=12),
        delta=st.floats(min_value=0.01, max_value=100.0),
        epsilon=st.floats(min_value=0.0, max_value=10.0),
        rho=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_window_soundness_inequality(self, n, delta, epsilon, rho):
        """The drift-tuned window always covers H_i in real time.

        a_i measured on a clock running at (1+rho) elapses in real time
        a_i/(1+rho), which must be >= H_i — the core soundness property
        of the calculus (strictly > whenever margin > 0).
        """
        t = TimingAssumptions(delta=delta, epsilon=epsilon, rho=rho)
        _, a, _ = self._windows(n, t, drift_tuned=True, margin=0.0)
        for i in range(n):
            real_window = a[i] / (1.0 + rho)
            assert real_window >= _closed_form_h(n - 1 - i, t) - 1e-9


class TestProblemSpecs:
    def test_definition1_property_set(self):
        assert TIME_BOUNDED_PAYMENT.requires(PropertyId.L_STRONG)
        assert TIME_BOUNDED_PAYMENT.requires(PropertyId.T_BOUNDED)
        assert not TIME_BOUNDED_PAYMENT.requires(PropertyId.CC)

    def test_definition2_property_set(self):
        assert WEAK_LIVENESS_PAYMENT.requires(PropertyId.CC)
        assert WEAK_LIVENESS_PAYMENT.requires(PropertyId.L_WEAK)
        assert not WEAK_LIVENESS_PAYMENT.requires(PropertyId.L_STRONG)

    def test_every_property_has_a_statement(self):
        for spec in ALL_SPECS:
            for prop in spec.properties:
                assert prop in PROPERTY_STATEMENTS

    def test_describe_lists_properties(self):
        text = TIME_BOUNDED_PAYMENT.describe()
        assert "ES" in text and "CS3" in text


class TestOutcomes:
    def _outcome(self, **kwargs):
        topo = PaymentTopology.linear(2)
        session = PaymentSession(topo, "timebounded", Synchronous(1.0), seed=1, **kwargs)
        return session.run(), topo

    def test_success_positions(self):
        outcome, topo = self._outcome()
        assert outcome.bob_paid
        # Every source's money left her accounts for good.
        assert all(outcome.in_success_position(s) for s in topo.sources())
        assert outcome.in_success_position("c1")
        assert not outcome.refunded("c1")

    def test_expected_success_delta_shapes(self):
        outcome, topo = self._outcome()
        assert outcome.expected_success_delta(0) == {"X": -topo.amounts[0].units}
        assert outcome.expected_success_delta(2) == {"X": topo.amounts[1].units}
        # connector: commission only
        assert outcome.expected_success_delta(1) == {
            "X": topo.amounts[0].units - topo.amounts[1].units
        }

    def test_refund_positions_on_byzantine_bob(self):
        outcome, topo = self._outcome(byzantine={"c2": "bob_never_signs"})
        assert outcome.refunded("c0")
        assert outcome.refunded("c1")
        assert not outcome.bob_paid
        assert not outcome.chi_issued()

    def test_certificates_tracking(self):
        outcome, _ = self._outcome()
        assert outcome.chi_issued()
        assert outcome.holds_certificate("c0", "chi")
        assert outcome.decision_kinds_issued() == set()

    def test_summary_fields(self):
        outcome, _ = self._outcome()
        summary = outcome.summary()
        assert summary["bob_paid"] is True
        assert summary["protocol"] == "timebounded"
