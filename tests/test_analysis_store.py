"""Tests: the analysis subsystem (store, query, render, CLI, resume)."""

import json

import pytest

from repro.analysis import (
    METRICS,
    RecordStore,
    analyze_store,
    percentile,
    render,
)
from repro.analysis.cli import analyze_main, cli_flags
from repro.analysis.query import resolve_group_by, resolve_metrics, resolve_where
from repro.errors import PersistenceError, ScenarioError
from repro.experiments import render_table
from repro.runtime import (
    RecordWriter,
    SerialExecutor,
    TrialRecord,
    TrialSpec,
    load_sweep_result,
    scan_records,
    write_sweep_result,
)
from repro.runtime.persist import MANIFEST_JSON, RECORDS_JSONL
from repro.scenarios import (
    CampaignSpec,
    aggregate_campaign,
    diff_campaign,
)
from repro.scenarios.spec import TRIAL_REF


def _campaign(**overrides):
    defaults = dict(
        protocols=["htlc", "weak"],
        timings=["sync"],
        adversaries=["none"],
        topologies=["linear-1"],
        trials=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _persisted(tmp_path, name="out", **overrides):
    result = SerialExecutor().run(_campaign(**overrides).compile())
    out = tmp_path / name
    write_sweep_result(result, out)
    return out, result


class TestRecordStore:
    def test_round_trip_matches_load_sweep_result(self, tmp_path):
        """Column-store cells must equal the record list reloaded by
        load_sweep_result, column by column, row by row."""
        out, _ = _persisted(tmp_path)
        result = load_sweep_result(out)
        store = RecordStore.load(out)
        assert len(store) == len(result)
        assert store.sweep_id == result.sweep_id
        for i, record in enumerate(result):
            for key, value in record.values.items():
                expected = (
                    value
                    if value is None or isinstance(value, (bool, int, float, str))
                    else json.dumps(value)  # non-scalars embed as JSON cells
                )
                assert store.column(key)[i] == expected
            assert store.column("protocol")[i] == record.spec.options["protocol"]
            assert store.column("seed")[i] == record.spec.seed
            assert store.column("ok")[i] is True

    def test_numeric_columns_are_typed_arrays(self, tmp_path):
        from array import array

        out, _ = _persisted(tmp_path)
        store = RecordStore.load(out)
        assert store.column("latency").kind == "float"
        assert isinstance(store.column("latency").data, array)
        assert store.column("seed").kind == "int"
        assert store.column("protocol").kind == "str"

    def test_error_records_fill_value_columns_with_none(self):
        good = TrialRecord(
            spec=TrialSpec(fn="m:f", coords=("a",), seed=1,
                           options={"protocol": "htlc"}),
            values={"latency": 2.5},
        )
        bad = TrialRecord(
            spec=TrialSpec(fn="m:f", coords=("b",), seed=2,
                           options={"protocol": "htlc"}),
            error="Traceback ...",
        )
        store = RecordStore.from_records([good, bad])
        assert store.column("latency")[1] is None
        assert store.column("ok")[1] is False
        assert store.ok_indices() == [0]

    def test_where_composes_and_parses_types(self):
        records = [
            TrialRecord(
                spec=TrialSpec(fn="m:f", coords=(i,), seed=i,
                               options={"rho": 0.25 * i, "name": f"n{i}"}),
                values={"x": float(i)},
            )
            for i in range(4)
        ]
        store = RecordStore.from_records(records)
        assert store.where({"rho": 0.5}) == [2]
        assert store.where({"name": "n3"}, indices=[0, 1]) == []
        assert store.column("rho").parse("0.5") == 0.5

    def test_unknown_column_names_available(self):
        store = RecordStore.from_records(
            [TrialRecord(spec=TrialSpec(fn="m:f", coords=(0,), seed=0),
                         values={"x": 1.0})]
        )
        with pytest.raises(KeyError, match="available"):
            store.column("nope")

    def test_partial_load_salvages_unmanifested_directory(self, tmp_path):
        out, _ = _persisted(tmp_path)
        (out / MANIFEST_JSON).unlink()
        with pytest.raises(PersistenceError):
            RecordStore.load(out)
        store = RecordStore.load(out, partial=True)
        assert len(store) == 4


class TestPercentile:
    def test_hand_computed_fixture(self):
        """Linear interpolation at rank p/100*(n-1), pinned by hand:
        [1,2,3,4] -> p50 = 2.5, p90 = 3.7, p99 = 3.97."""
        values = [4.0, 2.0, 1.0, 3.0]  # order must not matter
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 50.0) == 2.5
        assert percentile(values, 90.0) == pytest.approx(3.7)
        assert percentile(values, 99.0) == pytest.approx(3.97)
        assert percentile(values, 100.0) == 4.0

    def test_single_value_and_errors(self):
        assert percentile([7.0], 90.0) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 150.0)

    def test_metric_reports_dash_for_empty_group(self):
        bad = TrialRecord(
            spec=TrialSpec(fn="m:f", coords=("a",), seed=1,
                           options={"protocol": "htlc"}),
            error="boom",
        )
        store = RecordStore.from_records([bad])
        table = analyze_store(store, group_by=["protocol"],
                              metrics=["runs", "dropped", "p90_latency"])
        (row,) = table.rows
        assert row["runs"] == 0 and row["dropped"] == 1
        assert row["p90_latency"] == "-"


class TestQueryErrors:
    def _store(self, tmp_path):
        out, _ = _persisted(tmp_path)
        return RecordStore.load(out)

    def test_unknown_metric_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown metrics"):
            resolve_metrics(["success", "p97_latency"])
        with pytest.raises(ScenarioError, match="duplicate"):
            resolve_metrics(["success", "success"])

    def test_unknown_group_by_rejected(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(ScenarioError, match="unknown group-by"):
            resolve_group_by(store, ["protocol", "color"])
        with pytest.raises(ScenarioError, match="at least one"):
            resolve_group_by(store, [])

    def test_timing_alias_resolves(self, tmp_path):
        store = self._store(tmp_path)
        assert resolve_group_by(store, ["timing"]) == [("timing", "timing_name")]

    def test_alias_falls_back_to_literal_column_on_foreign_sweeps(self):
        """A non-campaign sweep with a real scalar 'timing' column (and
        no 'timing_name') must be addressable by that name — the alias
        only applies when its target exists."""
        records = [
            TrialRecord(
                spec=TrialSpec(fn="m:f", coords=(i,), seed=i,
                               options={"timing": f"mode{i % 2}"}),
                values={"x": float(i)},
            )
            for i in range(4)
        ]
        store = RecordStore.from_records(records)
        assert resolve_group_by(store, ["timing"]) == [("timing", "timing")]
        assert resolve_where(store, {"timing": "mode1"}) == {"timing": "mode1"}

    def test_where_on_value_column_survives_failed_trials(self):
        """One failed trial (None cells) must not degrade a value
        column's type: --where bob_paid=true still parses the literal
        as a boolean and matches the successful records."""
        good = [
            TrialRecord(
                spec=TrialSpec(fn="m:f", coords=(i,), seed=i,
                               options={"protocol": "htlc"}),
                values={"bob_paid": i % 2 == 0, "latency": float(i)},
            )
            for i in range(4)
        ]
        bad = TrialRecord(
            spec=TrialSpec(fn="m:f", coords=(9,), seed=9,
                           options={"protocol": "htlc"}),
            error="boom",
        )
        store = RecordStore.from_records(good + [bad])
        assert store.column("bob_paid").kind == "bool"
        assert store.column("latency").kind == "float"
        assert resolve_where(store, {"bob_paid": "true"}) == {"bob_paid": True}
        assert store.where({"bob_paid": True}) == [0, 2]
        table = analyze_store(store, group_by=["protocol"],
                              where={"bob_paid": "true"},
                              metrics=["runs", "mean_latency"])
        assert table.rows[0]["runs"] == 2

    def test_where_unknown_column_and_bad_literal(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(ScenarioError, match="unknown --where column"):
            resolve_where(store, {"color": "red"})
        with pytest.raises(ScenarioError, match="rho=abc"):
            resolve_where(store, {"rho": "abc"})

    def test_empty_selection_is_an_error(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(ScenarioError, match="no records match"):
            analyze_store(store, where={"topology": "linear-9"})


class TestAnalyzeMatchesCampaign:
    def test_shared_cells_agree_with_campaign_table(self, tmp_path):
        """The acceptance check: analyze's aggregate columns must match
        the campaign table's for the groups both report."""
        out, result = _persisted(
            tmp_path, adversaries=["none", "bob-edge"], trials=2
        )
        campaign_table = aggregate_campaign(result)
        store = RecordStore.load(out)
        analysis = analyze_store(
            store,
            group_by=["protocol", "timing", "adversary"],
            metrics=["runs", "success", "committed", "aborted",
                     "terminated", "def1_ok", "def2_ok", "mean_latency",
                     "mean_msgs"],
        )
        assert len(analysis.rows) == len(campaign_table.rows)
        for row in analysis.rows:
            (match,) = campaign_table.find_rows(
                protocol=row["protocol"], timing=row["timing"],
                adversary=row["adversary"],
            )
            assert row["runs"] == match["runs"]
            assert row["success"] == match["bob_paid"]
            assert row["committed"] == match["committed"]
            assert row["aborted"] == match["aborted"]
            assert row["terminated"] == match["terminated"]
            assert row["def1_ok"] == match["def1_ok"]
            assert row["def2_ok"] == match["def2_ok"]
            assert row["mean_latency"] == match["mean_latency"]
            assert row["mean_msgs"] == match["mean_msgs"]

    def test_where_filter_matches_smaller_campaign(self, tmp_path):
        """Filtering the big directory down to one topology must equal
        aggregating a campaign that only ran that topology."""
        out, _ = _persisted(
            tmp_path, topologies=["linear-1", "geom-2"], trials=2
        )
        small = SerialExecutor().run(
            _campaign(topologies=["geom-2"], trials=2).compile()
        )
        small_table = aggregate_campaign(small)
        store = RecordStore.load(out)
        analysis = analyze_store(
            store, where={"topology": "geom-2"},
            metrics=["runs", "success", "mean_latency"],
        )
        for row in analysis.rows:
            (match,) = small_table.find_rows(
                protocol=row["protocol"], timing=row["timing"],
                adversary=row["adversary"],
            )
            assert row["success"] == match["bob_paid"]
            assert row["mean_latency"] == match["mean_latency"]


class TestRenderers:
    def _table(self, tmp_path):
        out, _ = _persisted(tmp_path)
        return analyze_store(
            RecordStore.load(out),
            group_by=["protocol"],
            metrics=["runs", "success", "p90_latency"],
        )

    def test_text_uses_campaign_formatting(self, tmp_path):
        table = self._table(tmp_path)
        assert render(table, "text") == render_table(table)

    def test_csv_header_and_rows(self, tmp_path):
        lines = render(self._table(tmp_path), "csv").splitlines()
        assert lines[0] == "protocol,runs,success,p90_latency"
        assert len(lines) == 3  # header + htlc + weak

    def test_json_is_parseable_and_complete(self, tmp_path):
        document = json.loads(render(self._table(tmp_path), "json"))
        assert document["columns"] == ["protocol", "runs", "success",
                                       "p90_latency"]
        assert [r["protocol"] for r in document["rows"]] == ["htlc", "weak"]
        assert all(r["success"] == 1.0 for r in document["rows"])

    def test_json_preserves_exact_sweep_id(self, tmp_path):
        """A mixed-case sweep id must round-trip into the JSON report
        exactly, not via the table banner's upper/lower casing."""
        from repro.runtime.aggregate import SweepResult

        records = SerialExecutor().run(_campaign().compile()).records
        result = SweepResult(sweep_id="MySweep", records=records)
        write_sweep_result(result, tmp_path / "cased")
        store = RecordStore.load(tmp_path / "cased")
        document = json.loads(render(
            analyze_store(store, group_by=["protocol"], metrics=["runs"]),
            "json",
        ))
        assert document["sweep_id"] == "MySweep"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown format"):
            render(self._table(tmp_path), "yaml")


class TestAnalyzeCli:
    def test_subcommand_renders_table(self, tmp_path, capsys):
        from repro.cli import main

        out, _ = _persisted(tmp_path)
        assert main(["analyze", str(out), "--group-by", "protocol,adversary",
                     "--metrics", "success,p90_latency,def1_ok"]) == 0
        text = capsys.readouterr().out
        assert "persisted-record analysis" in text
        assert "p90_latency" in text and "htlc" in text

    def test_output_file_and_json(self, tmp_path, capsys):
        out, _ = _persisted(tmp_path)
        report = tmp_path / "report.json"
        assert analyze_main([str(out), "--format", "json", "--output",
                             str(report)]) == 0
        capsys.readouterr()
        document = json.loads(report.read_text())
        assert document["sweep_id"] == "campaign"

    def test_usage_errors(self, tmp_path, capsys):
        out, _ = _persisted(tmp_path)
        for argv in (
            [],                                      # no directory
            [str(tmp_path / "nope")],                # not persisted
            [str(out), "--where", "topology"],       # malformed clause
            [str(out), "--where", "x=1", "--where", "x=2"],  # dup column
            [str(out), "--metrics", "bogus"],        # unknown metric
            [str(out), "--group-by", "color"],       # unknown column
        ):
            with pytest.raises(SystemExit):
                analyze_main(argv)
        capsys.readouterr()

    def test_list_metrics(self, capsys):
        assert analyze_main(["--list-metrics"]) == 0
        text = capsys.readouterr().out
        for name in METRICS:
            assert name in text

    def test_cli_flags_enumerates_long_options(self):
        flags = cli_flags()
        assert "--group-by" in flags and "--where" in flags
        assert "--help" not in flags

    def test_partial_flag_reads_unmanifested_directory(self, tmp_path, capsys):
        out, _ = _persisted(tmp_path)
        (out / MANIFEST_JSON).unlink()
        with pytest.raises(SystemExit):
            analyze_main([str(out)])
        capsys.readouterr()
        assert analyze_main([str(out), "--partial"]) == 0
        assert "htlc" in capsys.readouterr().out


class TestDiffCampaign:
    def test_diff_finds_only_missing_cells(self, tmp_path):
        small = _campaign().compile()
        existing = SerialExecutor().run(small).records
        grown = _campaign(adversaries=["none", "bob-edge"]).compile()
        diff = diff_campaign(grown, existing)
        assert diff.reused == len(existing) == 4
        assert len(diff.missing) == len(grown) - 4
        assert all(t.opt("adversary") == "bob-edge" for t in diff.missing)
        assert diff.extra == []

    def test_extra_records_are_kept_not_dropped(self):
        wide = _campaign(adversaries=["none", "bob-edge"]).compile()
        existing = SerialExecutor().run(wide).records
        narrow = _campaign().compile()
        diff = diff_campaign(narrow, existing)
        assert len(diff.missing) == 0
        assert diff.reused == 4
        assert len(diff.extra) == 4  # the bob-edge records stay

    def test_seed_mismatch_is_rejected(self):
        existing = SerialExecutor().run(_campaign().compile()).records
        reseeded = _campaign(seed=99).compile()
        with pytest.raises(ScenarioError, match="different.*master seed"):
            diff_campaign(reseeded, existing)

    def test_option_mismatch_is_rejected(self):
        existing = SerialExecutor().run(_campaign().compile()).records
        changed = _campaign(rho=0.25).compile()
        with pytest.raises(ScenarioError, match="different"):
            diff_campaign(changed, existing)

    def test_foreign_records_rejected(self):
        foreign = [
            TrialRecord(
                spec=TrialSpec(fn="repro.experiments.e1_synchrony:trial",
                               coords=(1,), seed=1),
                values={"x": 1.0},
            )
        ]
        with pytest.raises(PersistenceError, match="not campaign"):
            diff_campaign(_campaign().compile(), foreign)

    def test_persisted_options_compare_equal_after_json_round_trip(
        self, tmp_path
    ):
        """The timing descriptor is a tuple live and a list reloaded;
        the diff must treat them as the same configuration."""
        out, _ = _persisted(tmp_path)
        reloaded = load_sweep_result(out).records
        diff = diff_campaign(_campaign().compile(), reloaded)
        assert len(diff.missing) == 0 and diff.reused == 4


class TestResume:
    def _run(self, argv):
        from repro.cli import main

        return main(["campaign"] + argv)

    def test_resume_appends_only_missing_cells_and_keeps_bytes(
        self, tmp_path, capsys
    ):
        """The acceptance path: grow one axis value; old records stay
        byte-identical, only the new cells execute."""
        out = tmp_path / "grid"
        base = ["--protocols", "htlc,weak", "--timing", "sync",
                "--topologies", "linear-1", "--trials", "2"]
        assert self._run(base + ["--adversaries", "none",
                                 "--out", str(out)]) == 0
        original = (out / RECORDS_JSONL).read_bytes()
        original_ids = {
            tuple(json.loads(line)["coords"])
            for line in original.decode().splitlines()
        }
        assert self._run(base + ["--adversaries", "none,bob-edge",
                                 "--out", str(out), "--resume"]) == 0
        text = capsys.readouterr().out
        assert "4 new trials run, 4 reused" in text
        grown = (out / RECORDS_JSONL).read_bytes()
        assert grown[: len(original)] == original  # old bytes untouched
        grown_ids = {
            tuple(json.loads(line)["coords"])
            for line in grown.decode().splitlines()
        }
        assert original_ids < grown_ids
        assert all(
            coords[2] == "bob-edge" for coords in grown_ids - original_ids
        )
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["records"] == 8 and manifest["revision"] == 1

    def test_resumed_directory_reaggregates_like_a_fresh_run(
        self, tmp_path, capsys
    ):
        """--from on a grown directory must render the same table a
        single full run of the final matrix would."""
        out = tmp_path / "grid"
        base = ["--protocols", "htlc", "--timing", "sync",
                "--topologies", "linear-1", "--trials", "2"]
        assert self._run(base + ["--adversaries", "none",
                                 "--out", str(out)]) == 0
        assert self._run(base + ["--adversaries", "none,bob-edge",
                                 "--out", str(out), "--resume"]) == 0
        capsys.readouterr()
        full = SerialExecutor().run(
            _campaign(protocols=["htlc"],
                      adversaries=["none", "bob-edge"]).compile()
        )
        expected = render_table(aggregate_campaign(full))
        assert self._run(["--from", str(out)]) == 0
        assert expected in capsys.readouterr().out

    def test_resume_without_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            self._run(["--resume", "--protocols", "htlc",
                       "--timing", "sync"])
        assert "needs --out" in capsys.readouterr().err

    def test_resume_conflicts_with_from(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self._run(["--from", str(tmp_path), "--resume"])
        assert "--resume" in capsys.readouterr().err

    def test_resume_into_empty_directory_runs_everything(
        self, tmp_path, capsys
    ):
        out = tmp_path / "fresh"
        assert self._run(["--protocols", "htlc", "--timing", "sync",
                          "--topologies", "linear-1", "--trials", "2",
                          "--out", str(out), "--resume"]) == 0
        assert "2 new trials run, 0 reused" in capsys.readouterr().out
        assert json.loads((out / MANIFEST_JSON).read_text())["records"] == 2

    def test_resume_repairs_interrupted_write(self, tmp_path, capsys):
        """An aborted --out run (no manifest, half-written last line)
        must resume from its last complete record."""
        out = tmp_path / "grid"
        sweep = _campaign(protocols=["htlc"]).compile()
        result = SerialExecutor().run(sweep)
        with pytest.raises(KeyboardInterrupt):
            with RecordWriter(out, sweep_id=sweep.sweep_id) as writer:
                writer.write(result.records[0])
                raise KeyboardInterrupt
        # Simulate a torn final line on top of the abort.
        with (out / RECORDS_JSONL).open("a") as handle:
            handle.write('{"fn": "repro.scenarios.trial:scen')
        assert not (out / MANIFEST_JSON).exists()
        assert self._run(["--protocols", "htlc", "--timing", "sync",
                          "--topologies", "linear-1", "--trials", "2",
                          "--out", str(out), "--resume"]) == 0
        assert "1 new trials run, 1 reused" in capsys.readouterr().out
        reloaded = load_sweep_result(out)
        assert [r.values for r in reloaded] == [r.values for r in result]

    def test_resume_with_different_seed_is_usage_error(
        self, tmp_path, capsys
    ):
        out = tmp_path / "grid"
        base = ["--protocols", "htlc", "--timing", "sync",
                "--topologies", "linear-1", "--trials", "2",
                "--out", str(out)]
        assert self._run(base) == 0
        with pytest.raises(SystemExit):
            self._run(base + ["--resume", "--seed", "99"])
        assert "master seed" in capsys.readouterr().err


class TestScanRecords:
    def test_scan_missing_directory_is_empty(self, tmp_path):
        scan = scan_records(tmp_path / "nope")
        assert scan.records == [] and scan.jsonl_bytes == 0
        assert not scan.complete

    def test_scan_complete_directory(self, tmp_path):
        out, result = _persisted(tmp_path)
        scan = scan_records(out)
        assert scan.complete and len(scan.records) == len(result)
        assert scan.jsonl_bytes == (out / RECORDS_JSONL).stat().st_size
        assert scan.sweep_id == "campaign"

    def test_scan_excludes_torn_tail(self, tmp_path):
        out, result = _persisted(tmp_path)
        whole = (out / RECORDS_JSONL).read_bytes()
        (out / RECORDS_JSONL).write_bytes(whole + b'{"truncated')
        scan = scan_records(out)
        assert len(scan.records) == len(result)
        assert scan.jsonl_bytes == len(whole)

    def test_scan_rejects_mid_file_corruption(self, tmp_path):
        out, _ = _persisted(tmp_path)
        lines = (out / RECORDS_JSONL).read_text().splitlines()
        lines[1] = "not json"
        (out / RECORDS_JSONL).write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="corrupt"):
            scan_records(out)

    def test_writer_refuses_foreign_sweep_id_on_resume(self, tmp_path):
        out, _ = _persisted(tmp_path)
        scan = scan_records(out)
        with pytest.raises(PersistenceError, match="refusing to append"):
            RecordWriter(out, sweep_id="other", resume_from=scan)


class TestLegacyImports:
    def test_trace_helpers_importable_from_package_root(self):
        """The pre-package import surface must keep working."""
        from repro.analysis import latency_stats, summarize  # noqa: F401
        from repro.analysis.trace import (  # noqa: F401
            latency_stats as canonical,
        )

        assert latency_stats is canonical


class TestColumnProjection:
    def test_projected_store_matches_full_store_columns(self, tmp_path):
        out, _ = _persisted(tmp_path)
        full = RecordStore.load(out)
        slim = RecordStore.load(out, columns=["protocol", "latency"])
        assert set(slim.column_names()) == {
            "protocol", "latency", "seed", "wall_seconds", "ok", "error"
        }
        for name in ("protocol", "latency", "seed", "ok"):
            assert list(slim.column(name)) == list(full.column(name))
        assert len(slim) == len(full)

    def test_projection_preserves_query_results(self, tmp_path):
        out, _ = _persisted(tmp_path)
        slim = RecordStore.load(out, columns=["protocol", "bob_paid", "latency"])
        table = analyze_store(
            slim, group_by=["protocol"], metrics=["runs", "success"]
        )
        full_table = analyze_store(
            RecordStore.load(out), group_by=["protocol"],
            metrics=["runs", "success"],
        )
        assert render_table(table).splitlines()[2:] == render_table(
            full_table
        ).splitlines()[2:]

    def test_unknown_projection_column_names_available(self, tmp_path):
        out, _ = _persisted(tmp_path)
        with pytest.raises(PersistenceError, match="nope.*available"):
            RecordStore.load(out, columns=["protocol", "nope"])

    @pytest.mark.parametrize("bookkeeping", ["seed", "ok", "error"])
    def test_projection_onto_a_bookkeeping_column(self, tmp_path, bookkeeping):
        """Bookkeeping columns always materialise, so naming one in a
        projection is no error, in memory or from a directory."""
        out, result = _persisted(tmp_path)
        wanted = ["protocol", bookkeeping]
        for slim in (
            RecordStore.from_records(result.records, columns=wanted),
            RecordStore.load(out, columns=wanted),
        ):
            assert slim.column_names() == [
                "protocol", "seed", "wall_seconds", "ok", "error"
            ]
        with pytest.raises(
            PersistenceError, match="available: .*, seed, wall_seconds, ok, error$"
        ):
            RecordStore.load(out, columns=[bookkeeping, "nope"])

    def test_partial_load_supports_projection(self, tmp_path):
        out, _ = _persisted(tmp_path)
        (out / MANIFEST_JSON).unlink()
        slim = RecordStore.load(out, partial=True, columns=["protocol"])
        assert "protocol" in slim.column_names()
        assert "latency" not in slim.column_names()

    def test_partial_projected_load_peaks_no_higher_than_complete(
        self, tmp_path
    ):
        """A partial load streams one line at a time, so it never holds
        more records than the complete load's one chunk."""
        import tracemalloc

        from repro.runtime import SweepResult
        from repro.runtime.persist import STREAM_CHUNK

        records = [
            TrialRecord(
                spec=TrialSpec(
                    fn=TRIAL_REF, coords=("weak", i), seed=i,
                    options={"protocol": "weak", "timing_name": "sync",
                             "topology": "linear-2", "horizon": 50_000.0},
                ),
                values={"bob_paid": i % 3 > 0, "latency": i * 0.25,
                        "messages": i % 17, "note": f"trial {i}"},
            )
            for i in range(4 * STREAM_CHUNK)
        ]
        out = tmp_path / "big"
        write_sweep_result(SweepResult("big", records), out)
        del records

        def peak(**load):
            tracemalloc.start()
            try:
                RecordStore.load(out, columns=["protocol", "latency"], **load)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(partial=True) <= peak()


class TestIterRecords:
    def test_chunks_cover_directory_in_order(self, tmp_path):
        from repro.runtime import iter_records

        out, result = _persisted(tmp_path)
        streamed = [r for chunk in iter_records(out, chunk_size=3)
                    for r in chunk]
        assert len(streamed) == len(result.records)
        assert [r.spec.coords for r in streamed] == [
            r.spec.coords for r in result.records
        ]
        chunks = list(iter_records(out, chunk_size=3))
        assert all(len(c) <= 3 for c in chunks)
        assert len(chunks) > 1  # the default campaign has 4 records

    def test_truncated_directory_raises_after_prefix(self, tmp_path):
        from repro.runtime import iter_records

        out, _ = _persisted(tmp_path)
        jsonl = out / RECORDS_JSONL
        lines = jsonl.read_bytes().splitlines(keepends=True)
        jsonl.write_bytes(b"".join(lines[:-1]))  # drop one record
        with pytest.raises(PersistenceError, match="manifest promises"):
            list(iter_records(out))

    @pytest.mark.parametrize("junk", [b"{\"spec\": ", b"\n"])
    def test_trailing_junk_after_the_counted_records_raises(self, tmp_path, junk):
        from repro.runtime import iter_records

        out, _ = _persisted(tmp_path)
        with (out / RECORDS_JSONL).open("ab") as handle:
            handle.write(junk)
        with pytest.raises(PersistenceError, match="corrupt line"):
            list(iter_records(out))

    def test_blank_line_before_the_last_record_raises(self, tmp_path):
        from repro.runtime import iter_records

        out, _ = _persisted(tmp_path)
        jsonl = out / RECORDS_JSONL
        lines = jsonl.read_bytes().splitlines(keepends=True)
        jsonl.write_bytes(lines[0] + b"\n" + b"".join(lines[1:]))
        with pytest.raises(PersistenceError, match="corrupt record"):
            list(iter_records(out))

    def test_bad_chunk_size_rejected(self, tmp_path):
        from repro.runtime import iter_records

        out, _ = _persisted(tmp_path)
        with pytest.raises(PersistenceError, match="chunk_size"):
            list(iter_records(out, chunk_size=0))


class TestAgainstDiff:
    def _pair(self, tmp_path):
        cur, _ = _persisted(tmp_path, name="cur",
                            protocols=["htlc", "weak", "certified"])
        base, _ = _persisted(tmp_path, name="base",
                             protocols=["htlc", "weak", "timebounded"])
        return cur, base

    def test_shared_cells_delta_to_zero_for_identical_runs(self, tmp_path):
        from repro.analysis import diff_stores

        out, _ = _persisted(tmp_path)
        store = RecordStore.load(out)
        result = diff_stores(store, RecordStore.load(out),
                             group_by=["protocol"],
                             metrics=["runs", "success", "mean_latency"])
        for row in result.rows:
            assert row["status"] == "both"
            assert row["runs"] == 0
            assert row["success"] == 0.0
            assert row["mean_latency"] == 0.0

    def test_missing_and_extra_cells_flagged(self, tmp_path):
        from repro.analysis import diff_stores

        cur, base = self._pair(tmp_path)
        result = diff_stores(
            RecordStore.load(cur), RecordStore.load(base),
            group_by=["protocol"], metrics=["runs", "success"],
        )
        status = {row["protocol"]: row["status"] for row in result.rows}
        assert status == {
            "htlc": "both", "weak": "both",
            "certified": "current-only", "timebounded": "baseline-only",
        }
        one_sided = [r for r in result.rows if r["status"] != "both"]
        assert all(r["runs"] == "-" and r["success"] == "-"
                   for r in one_sided)
        assert any("1 only in the current" in note and
                   "1 only in the baseline" in note
                   for note in result.notes)

    def test_cli_against_renders_and_json_parses(self, tmp_path, capsys):
        cur, base = self._pair(tmp_path)
        assert analyze_main([str(cur), "--against", str(base),
                             "--group-by", "protocol",
                             "--metrics", "runs,success"]) == 0
        text = capsys.readouterr().out
        assert "regression diff" in text
        assert "records from" in text and " vs " in text
        report = tmp_path / "diff.json"
        assert analyze_main([str(cur), "--against", str(base),
                             "--group-by", "protocol", "--format", "json",
                             "--output", str(report)]) == 0
        capsys.readouterr()
        document = json.loads(report.read_text())
        assert "status" in document["columns"]

    def test_against_missing_baseline_is_usage_error(self, tmp_path, capsys):
        out, _ = _persisted(tmp_path)
        with pytest.raises(SystemExit):
            analyze_main([str(out), "--against", str(tmp_path / "nope")])
        capsys.readouterr()
