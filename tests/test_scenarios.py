"""Tests: the scenario-matrix campaign subsystem."""

import pytest

from repro.errors import ScenarioError
from repro.experiments import render_table
from repro.runtime import ParallelExecutor, SerialExecutor, run_trial
from repro.scenarios import (
    CampaignSpec,
    ScenarioSpec,
    aggregate_campaign,
    available_adversaries,
    available_protocols,
    available_timings,
    build_topology,
    make_adversary,
    run_campaign,
    timing_descriptor,
)
from repro.scenarios.spec import TRIAL_REF


class TestRegistry:
    def test_all_payment_protocols_registered(self):
        assert available_protocols() == ["certified", "htlc", "timebounded", "weak"]

    def test_timing_names_resolve_to_models(self):
        from repro.experiments.harness import build_timing

        for name in available_timings():
            model = build_timing(timing_descriptor(name))
            assert hasattr(model, "delivery_time")

    def test_sync_tight_delivers_exactly_at_the_bound(self):
        """'every delay is exactly Δ=1' must be literally true — the
        docstring is what --list-axes and the docs advertise."""
        from repro.experiments.harness import build_timing
        from repro.sim.rng import RngRegistry

        model = build_timing(timing_descriptor("sync-tight"))
        rng = RngRegistry(0).stream("t")
        samples = {model.sample_delay(None, 0.0, rng) for _ in range(20)}
        assert samples == {1.0}

    def test_adversary_names_resolve(self):
        assert make_adversary("none") is None
        topology = build_topology("linear-3")
        for name in available_adversaries():
            if name != "none":
                adversary = make_adversary(name, topology)
                assert hasattr(adversary, "propose_delay")

    def test_adversary_factories_return_fresh_instances(self):
        # Stateful adversaries must never be shared between trials.
        assert make_adversary("cert-holder") is not make_adversary("cert-holder")

    def test_targeted_adversaries_know_their_edges(self):
        topology = build_topology("linear-4")
        bob_edge = make_adversary("bob-edge", topology)
        assert bob_edge.edges == {("e3", "c4"), ("c4", "e3")}
        alice_edge = make_adversary("alice-edge")
        assert alice_edge.edges == {("c0", "e0"), ("e0", "c0")}

    def test_bob_edge_requires_topology(self):
        with pytest.raises(ScenarioError):
            make_adversary("bob-edge")

    def test_topology_patterns(self):
        assert build_topology("linear-5").n_escrows == 5
        multi = build_topology("multiasset-3")
        assert len({amt.asset for amt in multi.amounts}) == 3

    def test_geom_topology_has_nonlinear_fee_ladder(self):
        geom = build_topology("geom-3")
        units = [amt.units for amt in geom.amounts]
        assert units == [225, 150, 100]  # x1.5 compounding toward Alice
        steps = [a - b for a, b in zip(units, units[1:])]
        assert steps[0] != steps[1]  # non-linear: unequal commissions

    def test_patience_ignores_jitter_fraction(self):
        """Synchronous jitter is a fraction of the delay window, never
        an addend: the worst-case delay is delta itself, so patience
        105 > 10*delta=100 counts as patient whatever the jitter."""
        from repro.verification.properties import patience_is_sufficient

        options = {"patience_setup": 105.0, "patience_decision": 105.0}
        assert patience_is_sufficient(
            ("synchronous", {"delta": 10.0, "jitter": 1.0}), options
        )
        assert not patience_is_sufficient(
            ("synchronous", {"delta": 11.0}), options
        )
        assert not patience_is_sufficient(("asynchronous", {}), options)

    def test_register_protocol_refuses_a_class_without_a_definition(self):
        """A protocol registered without a definition would pass
        validation and then fail inside every campaign trial."""
        from repro.errors import ProtocolError
        from repro.protocols.base import (
            PaymentProtocol, _REGISTRY, register_protocol,
        )

        class _Undeclared(PaymentProtocol):
            """undeclared dummy"""

            name = "undeclared-test"

            def build(self):
                pass

        with pytest.raises(ProtocolError, match="must declare the definition"):
            register_protocol(_Undeclared)
        assert "undeclared-test" not in _REGISTRY

    def test_definition_profile_cert_kinds_reach_cs1(self):
        """The class's receipt_kinds must actually drive CS1 for both
        definitions — not just the Definition 1 branch."""
        from repro.core.problem import PropertyId
        from repro.core.session import PaymentSession
        from repro.net.timing import Synchronous
        from repro.properties import Status, check_definition2
        from repro.protocols.base import protocol_class

        outcome = PaymentSession(
            build_topology("linear-2"),
            "weak",
            Synchronous(1.0),
            protocol_options=dict(protocol_class("weak").sweep_defaults),
        ).run()
        assert outcome.bob_paid  # committed run: Alice paid, holds χc
        default = check_definition2(outcome)
        assert default.status_of(PropertyId.CS1) is Status.HOLDS
        # With a certificate kind nobody issues, CS1 must flip.
        skewed = check_definition2(outcome, cert_kinds=("nonexistent",))
        assert skewed.status_of(PropertyId.CS1) is Status.VIOLATED

    def test_axis_descriptions_cover_every_registered_name(self):
        from repro.scenarios import axis_descriptions

        described = axis_descriptions()
        assert sorted(described["protocols"]) == available_protocols()
        assert sorted(described["timings"]) == available_timings()
        assert sorted(described["adversaries"]) == available_adversaries()
        for entries in described.values():
            assert all(doc for doc in entries.values()), entries

    def test_unknown_names_raise_scenario_error(self):
        with pytest.raises(ScenarioError):
            timing_descriptor("warp")
        with pytest.raises(ScenarioError):
            make_adversary("mallory")
        with pytest.raises(ScenarioError):
            ScenarioSpec(protocol="lightning", timing="sync").validate()
        with pytest.raises(ScenarioError):
            build_topology("ring-3")
        with pytest.raises(ScenarioError):
            build_topology("linear-zero")
        with pytest.raises(ScenarioError):
            build_topology("linear-0")


class TestScenarioSpec:
    def test_options_merge_protocol_defaults(self):
        spec = ScenarioSpec(
            protocol="weak",
            timing="sync",
            protocol_options={"patience_setup": 9.0},
        )
        options = spec.options()
        assert options["protocol_options"]["patience_setup"] == 9.0
        assert options["protocol_options"]["tm"] == "trusted"
        assert options["timing"] == ("synchronous", {"delta": 1.0})

    def test_label(self):
        spec = ScenarioSpec(protocol="htlc", timing="async")
        assert spec.label == "htlc/async/none/linear-3"

    def test_validate_rejects_bad_axes(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(protocol="htlc", timing="warp").validate()
        with pytest.raises(ScenarioError):
            ScenarioSpec(protocol="htlc", timing="sync", rho=-0.1).validate()
        with pytest.raises(ScenarioError):
            ScenarioSpec(protocol="htlc", timing="sync", horizon=0.0).validate()


class TestCampaignCompile:
    def test_cross_product_order_and_size(self):
        campaign = CampaignSpec(
            protocols=["htlc", "weak"],
            timings=["sync", "partial"],
            adversaries=["none"],
            topologies=["linear-1"],
            trials=2,
        )
        sweep = campaign.compile()
        assert len(sweep) == len(campaign) == 8
        assert sweep.trials[0].coords == ("htlc", "sync", "none", "linear-1", 0)
        assert sweep.trials[-1].coords == ("weak", "partial", "none", "linear-1", 1)
        assert all(t.fn == TRIAL_REF for t in sweep)

    def test_seeds_collision_free_across_cells(self):
        campaign = CampaignSpec(
            protocols=["htlc", "timebounded", "weak", "certified"],
            timings=["sync", "partial", "async"],
            adversaries=["none", "delayer"],
            topologies=["linear-1", "linear-3"],
            trials=3,
        )
        seeds = [t.seed for t in campaign.compile()]
        assert len(seeds) == len(set(seeds)) == 144

    def test_cell_seeds_stable_under_other_axis_changes(self):
        """Adding axis values must not reshuffle existing cells' seeds."""
        small = CampaignSpec(protocols=["htlc"], timings=["sync"], trials=2)
        large = CampaignSpec(
            protocols=["htlc", "weak"], timings=["sync", "async"], trials=2
        )
        small_seeds = {t.coords: t.seed for t in small.compile()}
        large_seeds = {t.coords: t.seed for t in large.compile()}
        for coords, seed in small_seeds.items():
            assert large_seeds[coords] == seed

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError):
            CampaignSpec(protocols=[], timings=["sync"])
        with pytest.raises(ScenarioError):
            CampaignSpec(protocols=["htlc"], timings=["sync"], trials=0)

    def test_duplicate_axis_values_rejected(self):
        """A repeated axis value would rerun identical seeds and pass
        the duplicates off as additional Monte-Carlo evidence."""
        with pytest.raises(ScenarioError):
            CampaignSpec(protocols=["htlc", "htlc"], timings=["sync"])
        with pytest.raises(ScenarioError):
            CampaignSpec(
                protocols=["htlc"], timings=["sync"], adversaries=["none", "none"]
            )

    def test_one_shot_iterable_axes_are_normalised(self):
        """Generator axis values must survive validation AND compile."""
        campaign = CampaignSpec(
            protocols=iter(["htlc"]), timings=(t for t in ["sync"]), trials=2
        )
        assert len(campaign) == 2
        assert len(campaign.compile()) == 2

    def test_validation_is_cheap_for_huge_topologies(self):
        """Compile-time validation must not build the topologies."""
        campaign = CampaignSpec(
            protocols=["htlc"], timings=["sync"], topologies=["linear-1000000"]
        )
        assert len(campaign.compile()) == 3  # instant: names only

    def test_compile_fails_fast_on_unknown_axis_value(self):
        campaign = CampaignSpec(protocols=["htlc"], timings=["warp"])
        with pytest.raises(ScenarioError):
            campaign.compile()


class TestScenarioTrial:
    @pytest.mark.parametrize("protocol", ["htlc", "timebounded", "weak", "certified"])
    def test_each_protocol_completes_under_synchrony(self, protocol):
        campaign = CampaignSpec(
            protocols=[protocol],
            timings=["sync"],
            topologies=["linear-2"],
            trials=1,
        )
        record = run_trial(campaign.compile().trials[0])
        assert record.ok, record.error
        assert record["bob_paid"] and record["all_terminated"]
        assert record["ledgers_ok"]
        assert record["latency"] > 0.0
        # Under synchrony with an honest network, every protocol's own
        # definition holds; the other definition's column is None.
        checked = record["def1_ok"] if record["definition"] == 1 else record["def2_ok"]
        unchecked = record["def2_ok"] if record["definition"] == 1 else record["def1_ok"]
        assert checked is True and unchecked is None
        assert record["violated_properties"] == []

    def test_cert_holder_defeats_timebounded_under_partial_synchrony(self):
        campaign = CampaignSpec(
            protocols=["timebounded"],
            timings=["partial-late"],
            adversaries=["cert-holder"],
            topologies=["linear-2"],
            trials=1,
        )
        record = run_trial(campaign.compile().trials[0])
        assert record.ok, record.error
        assert not record["bob_paid"]
        # The cell where the guarantee breaks is exactly where the
        # property column must say so.
        assert record["definition"] == 1 and record["def1_ok"] is False

    def test_latency_honest_when_horizon_binds(self):
        """A never-settling run reports the horizon, not the last event."""
        campaign = CampaignSpec(
            protocols=["htlc"],
            timings=["async"],
            adversaries=["delayer"],
            topologies=["linear-2"],
            trials=1,
            horizon=777.0,
        )
        record = run_trial(campaign.compile().trials[0])
        assert record.ok, record.error
        # Premise: the delayer stretches every async message to the
        # model maximum (500), so this run cannot settle by t=777.  If
        # a registry change ever breaks this, re-pin the cell.
        assert not record["all_terminated"]
        assert record["latency"] == 777.0


class TestCampaignAggregation:
    def _campaign(self):
        return CampaignSpec(
            protocols=["htlc", "weak"],
            timings=["sync", "partial"],
            adversaries=["none"],
            topologies=["linear-1", "linear-2"],
            trials=2,
        )

    def test_rows_grouped_by_protocol_timing_adversary(self):
        result = run_campaign(self._campaign())
        keys = [(r["protocol"], r["timing"], r["adversary"]) for r in result.rows]
        # Topologies pool inside a group: 2 topologies x 2 trials = 4 runs.
        assert keys == [
            ("htlc", "sync", "none"),
            ("htlc", "partial", "none"),
            ("weak", "sync", "none"),
            ("weak", "partial", "none"),
        ]
        assert all(r["runs"] == 4 for r in result.rows)

    def test_serial_parallel_byte_parity(self):
        sweep = self._campaign().compile()
        serial = SerialExecutor().run(sweep)
        parallel = ParallelExecutor(jobs=2).run(sweep)
        assert [r.values for r in serial] == [r.values for r in parallel]
        assert render_table(aggregate_campaign(serial)) == render_table(
            aggregate_campaign(parallel)
        )

    def test_definition_columns_fraction_or_dash(self):
        """Each row reports its own definition's check fraction; the
        other definition renders '-' (not checked ≠ checked-and-failed)."""
        result = run_campaign(self._campaign())
        for row in result.rows:
            if row["protocol"] == "htlc":
                assert isinstance(row["def1_ok"], float)
                assert row["def2_ok"] == "-"
            else:  # weak
                assert row["def1_ok"] == "-"
                assert isinstance(row["def2_ok"], float)
        # Synchrony, honest network: the guarantees hold outright.
        for row in result.rows:
            if row["timing"] == "sync":
                checked = row["def1_ok"] if row["protocol"] == "htlc" else row["def2_ok"]
                assert checked == 1.0

    def test_run_campaign_accepts_jobs_int(self):
        a = run_campaign(self._campaign(), executor=2)
        b = run_campaign(self._campaign())
        assert render_table(a) == render_table(b)


class TestCampaignCli:
    def test_campaign_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--protocols", "htlc,weak",
                "--timing", "sync",
                "--adversaries", "none",
                "--trials", "2",
                "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario-matrix campaign" in out
        assert "htlc" in out and "weak" in out and "jobs=2" in out

    def test_output_artifact_identical_across_jobs(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "campaign",
            "--protocols", "weak",
            "--timing", "sync,partial",
            "--trials", "2",
        ]
        serial, parallel = tmp_path / "serial.txt", tmp_path / "parallel.txt"
        assert main(args + ["--output", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--output", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_list_axes(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--list-axes"]) == 0
        out = capsys.readouterr().out
        assert "timebounded" in out and "linear-N" in out

    def test_unknown_axis_value_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--timing", "warp"])
        assert "unknown timing model" in capsys.readouterr().err

    def test_cli_table_notes_adversary_skipped_cells(self, capsys, monkeypatch):
        """The campaign CLI reports every skipped cell run_campaign
        reports, adversary-incapable ones included."""
        from repro.cli import main
        from repro.protocols.htlc.protocol import HTLCProtocol

        monkeypatch.setattr(HTLCProtocol, "supports_recovery", False)
        assert main(["campaign", "--protocols", "htlc,weak", "--timing", "sync",
                     "--adversaries", "none,crash-restart", "--trials", "1",
                     "--topologies", "linear-1"]) == 0
        out = capsys.readouterr().out
        assert "skipped htlc x crash-restart" in out


#: The two sweep CLIs, as subcommands of ``python -m repro``.
SWEEP_CLIS = ("campaign", "workload")


class TestSweepFrontEnd:
    """campaign and workload share one execution/persistence front-end."""

    @pytest.mark.parametrize("command", SWEEP_CLIS)
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["--chunksize", "0"], "--chunksize must be >= 1, got 0"),
            (["--resume"], "needs --out DIR"),
            (["--set", "weak"], "expected protocol.option=value"),
        ],
    )
    def test_shared_flags_validate_identically(
        self, capsys, command, argv, message
    ):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([command] + argv)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", SWEEP_CLIS)
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rho", "-0.1"], "rho must be >= 0, got -0.1"),
            (["--horizon", "-5"], "horizon must be > 0, got -5.0"),
            (
                ["--protocols", "htlc", "--set", "weak.patience_setup=30"],
                "override targets protocol 'weak', which is not on the "
                "protocols axis ['htlc']",
            ),
            (
                ["--protocols", "htlc", "--set", "htlc.dleta=2"],
                "protocol 'htlc' has no option 'dleta'; known options: "
                "['delta', 'epsilon', 'give_up_margin', 'step']",
            ),
            (
                ["--protocols", "certified", "--set", "certified.tm=committee"],
                "protocol 'certified' has no option 'tm'; known options: "
                "['block_interval', 'confirmations', 'patience_decision', "
                "'patience_overrides', 'patience_setup']",
            ),
            (
                ["--protocols", "weak", "--set", "weak.detla=2"],
                "protocol 'weak' has no option 'detla'; known options: "
                "['patience_decision', 'patience_overrides', "
                "'patience_setup', 'tm']",
            ),
            (
                ["--protocols", "lightning"],
                "unknown protocol 'lightning'; available: "
                "['certified', 'htlc', 'timebounded', 'weak']",
            ),
        ],
        ids=[
            "negative-rho", "negative-horizon", "set-target", "set-option",
            "certified-has-no-tm", "weak-set-option", "unknown-protocol",
        ],
    )
    def test_spec_options_validate_identically(
        self, capsys, command, argv, message
    ):
        """rho, horizon and --set go through one check in both specs."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([command] + argv)
        assert exit_info.value.code == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_both_parsers_carry_the_shared_flags(self):
        from repro.runtime.frontend import RUN_FLAGS
        from repro.scenarios.cli import cli_flags as campaign_flags
        from repro.workload.cli import cli_flags as workload_flags

        shared = {flag for flag, _ in RUN_FLAGS} | {"--output"}
        assert shared <= set(campaign_flags())
        assert shared <= set(workload_flags())

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("campaign", ["--protocols", "htlc,weak", "--timing", "sync",
                          "--topologies", "linear-1", "--trials", "2"]),
            ("workload", ["--protocols", "htlc,weak", "--loads", "0.5",
                          "--payments", "3"]),
        ],
    )
    def test_manifest_provenance_is_the_same(self, tmp_path, capsys, command, argv):
        """--set overrides and the pool's chunksize land in either
        CLI's manifest under the same keys."""
        import json

        from repro.cli import main

        out = tmp_path / "out"
        assert main([command] + argv + [
            "--set", "weak.patience_setup=40", "--jobs", "2",
            "--chunksize", "1", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["option_overrides"] == {"weak": {"patience_setup": 40}}
        assert manifest["chunksize"] == 1 and manifest["jobs"] == 2
