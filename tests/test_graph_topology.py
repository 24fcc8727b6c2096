"""Tests: graph-shaped payment topologies (trees, hubs, DAG relations).

Covers the PaymentGraph model itself (validation, derived relations,
O(1) index lookups), the funding-plan conservation law on fan-out
shapes, path↔graph behavioural equivalence on linear-N, the
Definition 1/2 checkers with multiple recipients, and the graph-aware
campaign additions (tree-N/hub-N registry entries, sink-targeting
adversaries, leaves/depth record columns, rho/horizon axes).
"""

import pytest

from repro.core.outcomes import PaymentOutcome
from repro.core.params import TimingAssumptions, compute_graph_params
from repro.core.session import PaymentSession
from repro.core.topology import HopEdge, PaymentGraph, PaymentTopology
from repro.errors import ProtocolError, ScenarioError
from repro.ledger.asset import Amount
from repro.net.message import Envelope, MsgKind
from repro.net.timing import PartialSynchrony, Synchronous
from repro.properties import (
    BobSecurity,
    Status,
    check_definition1,
    check_definition2,
)
from repro.scenarios.registry import build_topology, make_adversary
from repro.scenarios.spec import CampaignSpec
from repro.scenarios.trial import scenario_trial


def _amt(units):
    return Amount("X", units)


def _tree1():
    """Alice fans out directly to two recipients."""
    return PaymentGraph(
        edges=(
            HopEdge("c0", "e0", "c1", _amt(100)),
            HopEdge("c0", "e1", "c2", _amt(100)),
        )
    )


def _hub(n=3):
    return build_topology(f"hub-{n}")


class TestPaymentGraphModel:
    def test_derived_relations(self):
        g = _hub(3)
        assert g.sources() == ["c0"]
        assert g.sinks() == ["c2", "c3", "c4"]
        assert g.connectors() == ["c1"]
        assert g.escrows_of_customer("c1") == ["e0", "e1", "e2", "e3"]
        assert g.depth == 2 and g.leaves == 3
        assert g.reachable_sinks("c0") == ("c2", "c3", "c4")
        assert g.reachable_sinks("c2") == ("c2",)

    def test_validation_rejects_cycles(self):
        with pytest.raises(ProtocolError, match="cycl"):
            PaymentGraph(
                edges=(
                    HopEdge("a", "e0", "b", _amt(1)),
                    HopEdge("b", "e1", "a", _amt(1)),
                )
            )

    def test_validation_rejects_duplicate_escrow(self):
        with pytest.raises(ProtocolError, match="two hops"):
            PaymentGraph(
                edges=(
                    HopEdge("a", "e0", "b", _amt(1)),
                    HopEdge("b", "e0", "c", _amt(1)),
                )
            )

    def test_validation_rejects_disconnected(self):
        with pytest.raises(ProtocolError, match="disconnected"):
            PaymentGraph(
                edges=(
                    HopEdge("a", "e0", "b", _amt(1)),
                    HopEdge("x", "e1", "y", _amt(1)),
                )
            )

    def test_path_detection(self):
        assert PaymentTopology.linear(3).is_path
        assert not _tree1().is_path
        assert not _hub().is_path
        assert build_topology("hub-1").is_path  # a 1-spoke hub is a chain

    def test_index_lookups_parse_names(self):
        g = build_topology("tree-2")
        for i, name in enumerate(g.customers()):
            assert g.customer_index(name) == i
        for j, name in enumerate(g.escrows()):
            assert g.escrow_index(name) == j
        with pytest.raises(ProtocolError):
            g.customer_index("e0")
        with pytest.raises(ProtocolError):
            g.escrow_index("c0")

    def test_index_lookup_fallback_for_custom_names(self):
        g = PaymentGraph(
            edges=(HopEdge("alice", "bank", "bob", _amt(5)),)
        )
        assert g.customer_index("alice") == 0
        assert g.customer_index("bob") == 1
        assert g.escrow_index("bank") == 0

    def test_bob_property_guards_multi_sink(self):
        assert PaymentTopology.linear(2).bob == "c2"
        with pytest.raises(ProtocolError, match="sinks"):
            _tree1().bob

    def test_describe_lists_every_edge(self):
        text = _hub(2).describe()
        for name in ("c0", "e0", "c1", "e1", "c2", "e2", "c3"):
            assert name in text


class TestFundingConservation:
    """The funding plan mints exactly what the hops move."""

    @pytest.mark.parametrize("name", ["tree-1", "tree-2", "hub-2", "hub-4"])
    def test_plan_funds_each_upstream_with_its_edge_amount(self, name):
        g = build_topology(name)
        plan = g.funding_plan()
        assert set(plan) == set(g.escrows())
        for edge in g.edges:
            assert plan[edge.escrow] == [(edge.upstream, edge.amount)]

    @pytest.mark.parametrize("name", ["tree-2", "hub-3"])
    def test_connector_funding_equals_outflow_and_commission_is_net(self, name):
        g = build_topology(name)
        for connector in g.connectors():
            inflow = sum(e.amount.units for e in g.in_edges(connector))
            outflow = sum(e.amount.units for e in g.out_edges(connector))
            assert inflow == outflow + 1  # the unit commission

    @pytest.mark.parametrize("name", ["tree-1", "tree-2", "hub-3"])
    def test_honest_run_settles_every_position(self, name):
        g = build_topology(name)
        outcome = PaymentSession(g, "timebounded", Synchronous(1.0), seed=5).run()
        assert outcome.bob_paid and all(
            outcome.in_success_position(src) for src in g.sources()
        )
        assert outcome.all_participants_terminated()
        assert all(outcome.ledger_audits.values())
        for sink in g.sinks():
            units = sum(e.amount.units for e in g.in_edges(sink))
            assert outcome.position_delta(sink) == {"X": units}
        for connector in g.connectors():
            assert outcome.in_success_position(connector)


class TestPathGraphEquivalence:
    """A hand-built path graph behaves identically to linear-N."""

    @pytest.mark.parametrize("protocol", ["timebounded", "htlc", "weak"])
    def test_same_seed_same_outcome(self, protocol):
        n, seed = 3, 11
        topo = PaymentTopology.linear(n)
        graph = PaymentGraph(edges=topo.edges, payment_id=topo.payment_id)
        assert graph.is_path
        a = PaymentSession(topo, protocol, Synchronous(1.0), seed=seed).run()
        b = PaymentSession(graph, protocol, Synchronous(1.0), seed=seed).run()
        assert a.bob_paid == b.bob_paid
        assert a.end_time == b.end_time
        assert a.messages_sent == b.messages_sent
        assert a.final_balances == b.final_balances
        assert a.termination_times == b.termination_times

    def test_tree_windows_follow_remaining_depth(self):
        t = TimingAssumptions(delta=1.0, epsilon=0.05)
        g = build_topology("tree-2")
        params = compute_graph_params(g, t)
        # Root-level hops have one more level below them than leaf hops.
        root_hop = g.edges[0]  # into a level-1 connector
        leaf_hop = g.edges[-1]  # into a leaf
        assert params.a_of(root_hop.escrow) > params.a_of(leaf_hop.escrow)
        assert params.a_of(leaf_hop.escrow) == pytest.approx(2.05)


class TestCheckersWithMultipleRecipients:
    def _honest_tree_outcome(self, seed=4) -> PaymentOutcome:
        return PaymentSession(
            build_topology("tree-1"), "timebounded", Synchronous(1.0), seed=seed
        ).run()

    def test_definition1_all_ok_on_honest_tree(self):
        report = check_definition1(self._honest_tree_outcome())
        assert report.all_ok, report.violations()

    def test_definition2_bob_security_per_sink(self):
        outcome = self._honest_tree_outcome()
        verdict = BobSecurity(weak_variant=True).check(outcome)
        assert verdict.status is Status.HOLDS

    def test_starved_sink_breaks_strong_liveness_not_cs2(self):
        g = build_topology("hub-3")
        outcome = PaymentSession(
            g,
            "timebounded",
            PartialSynchrony(gst=500.0, delta=1.0),
            adversary=make_adversary("bob-edge", g),
            seed=9,
            protocol_options={"delta": 1.0},
        ).run()
        assert not outcome.bob_paid
        report = check_definition1(outcome)
        by_id = {v.property_id.value: v.status for v in report.verdicts}
        # Sinks never issued chi, so CS2 holds (or is vacuous); the
        # all-honest payment failing is a liveness loss.
        assert by_id["L-strong"] is Status.VIOLATED
        assert by_id["CS2"] in (Status.HOLDS, Status.VACUOUS)

    def test_chi_issued_attribution_per_sink(self):
        outcome = self._honest_tree_outcome()
        for sink in outcome.topology.sinks():
            assert outcome.chi_issued(by=sink)
        assert not outcome.chi_issued(by="c0")


class TestGraphCampaignAxes:
    def test_tree_and_hub_cells_run_end_to_end(self):
        for topology in ("tree-1", "hub-2"):
            spec = CampaignSpec(
                protocols=["timebounded"],
                timings=["sync"],
                topologies=[topology],
                trials=2,
            )
            sweep = spec.compile()
            records = [scenario_trial(t) for t in sweep]
            assert all(r["bob_paid"] for r in records)
            assert all(r["def1_ok"] for r in records)

    def test_leaves_depth_columns(self):
        spec = CampaignSpec(
            protocols=["timebounded"],
            timings=["sync"],
            topologies=["tree-2"],
            trials=1,
        )
        record = scenario_trial(next(iter(spec.compile())))
        assert record["leaves"] == 4 and record["depth"] == 2

    def test_every_protocol_runs_graph_topologies(self):
        # PR 7: weak/certified/htlc are graph-native — the cells that
        # used to raise "path topologies only" now run end to end.
        for protocol in ("weak", "certified", "htlc"):
            spec = CampaignSpec(
                protocols=[protocol], timings=["sync"],
                topologies=["hub-2"], trials=1,
            )
            record = scenario_trial(next(iter(spec.compile())))
            assert record["bob_paid"] and record["all_terminated"]

    def test_unsupported_cells_skip_with_reason(self):
        from repro.protocols.base import PaymentProtocol, _REGISTRY, register_protocol

        @register_protocol
        class _PathOnly(PaymentProtocol):
            """path-only dummy"""

            name = "pathonly-test"
            definition = 1

            def build(self):
                raise AssertionError("skipped cells must never build")

        try:
            spec = CampaignSpec(
                protocols=["pathonly-test", "weak"], timings=["sync"],
                topologies=["hub-2", "linear-2"], trials=1,
            )
            assert spec.unsupported_cells() == [(
                "pathonly-test", "hub-2",
                "topology 'hub-2' demands ['dag'] but protocol "
                "'pathonly-test' only supports ['path']",
            )]
            sweep = spec.compile()
            # The skipped combination never compiles, and len(spec)
            # agrees with the compiled trial count.
            assert len(sweep) == len(spec) == 3
            assert all(
                (t.opt("protocol"), t.opt("topology")) != ("pathonly-test", "hub-2")
                for t in sweep
            )
            # All combinations unsupported -> loud error, not 0 trials.
            with pytest.raises(ScenarioError, match="unsupported"):
                CampaignSpec(
                    protocols=["pathonly-test"], timings=["sync"],
                    topologies=["hub-2"], trials=1,
                ).compile()
        finally:
            del _REGISTRY["pathonly-test"]

    def test_decision_holder_targets_graph_sinks(self):
        g = _hub(2)
        adversary = make_adversary("decision-holder", g)
        held = Envelope(sender="tm", recipient="c2", kind=MsgKind.DECISION)
        passed = Envelope(sender="tm", recipient="c1", kind=MsgKind.DECISION)
        assert adversary.propose_delay(held, 0.0) is not None
        assert adversary.propose_delay(passed, 0.0) is None

    def test_bob_edge_covers_every_sink_link(self):
        g = _tree1()
        adversary = make_adversary("bob-edge", g)
        assert adversary.edges == {
            ("e0", "c1"), ("c1", "e0"), ("e1", "c2"), ("c2", "e1"),
        }

    def test_alice_edge_covers_every_source_link(self):
        adversary = make_adversary("alice-edge", _tree1())
        assert adversary.edges == {
            ("c0", "e0"), ("e0", "c0"), ("c0", "e1"), ("e1", "c0"),
        }
        # Path fallback (and path topologies) keep the historical pair.
        assert make_adversary("alice-edge").edges == {
            ("c0", "e0"), ("e0", "c0"),
        }

    def test_resume_rejects_coordinate_arity_mismatch(self):
        from repro.scenarios.campaign import diff_campaign
        from repro.runtime.aggregate import TrialRecord

        scalar = CampaignSpec(
            protocols=["timebounded"], timings=["sync"], trials=1
        ).compile()
        persisted = [
            TrialRecord(spec=t, values={}, error=None, wall_seconds=0.0)
            for t in scalar
        ]
        with_axis = CampaignSpec(
            protocols=["timebounded"], timings=["sync"], trials=1,
            rhos=[0.0],
        ).compile()
        with pytest.raises(ScenarioError, match="grid coordinates"):
            diff_campaign(with_axis, persisted)

    def test_tree_depth_capped(self):
        with pytest.raises(ScenarioError, match="caps depth"):
            build_topology("tree-30")

    def test_rho_axis_enters_coords_and_seeds(self):
        base = dict(
            protocols=["timebounded"], timings=["sync"], trials=1
        )
        scalar = CampaignSpec(**base).compile()
        axis = CampaignSpec(**base, rhos=[0.0, 0.1]).compile()
        assert len(axis) == 2 * len(scalar)
        coords = [t.coords for t in axis]
        assert all(len(c) == len(scalar.trials[0].coords) + 1 for c in coords)
        assert len({t.seed for t in axis}) == len(axis)
        # Scalar campaigns keep their historical coordinates (and seeds).
        assert scalar.trials[0].coords == (
            "timebounded", "sync", "none", "linear-3", 0
        )

    def test_horizon_axis_and_scalar_conflict(self):
        spec = CampaignSpec(
            protocols=["timebounded"],
            timings=["sync"],
            trials=1,
            horizons=[50.0, 100.0],
        )
        assert len(spec.compile()) == 2
        with pytest.raises(ScenarioError, match="scalar and the"):
            CampaignSpec(
                protocols=["timebounded"], timings=["sync"],
                rho=0.1, rhos=[0.0, 0.1],
            )

    def test_overrides_must_target_a_matrix_protocol(self):
        with pytest.raises(ScenarioError, match="not .* the protocols axis"):
            CampaignSpec(
                protocols=["timebounded"],
                timings=["sync"],
                overrides={"weak": {"patience_setup": 30}},
            )

    def test_overrides_reach_cell_options(self):
        spec = CampaignSpec(
            protocols=["weak"],
            timings=["sync"],
            trials=1,
            overrides={"weak": {"patience_setup": 30}},
        )
        options = next(iter(spec.compile())).opt("protocol_options")
        assert options["patience_setup"] == 30
        assert options["patience_decision"] == 120.0  # default kept
