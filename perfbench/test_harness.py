"""Tests of the benchmark's own arithmetic and plumbing (tiny sizes only)."""

from __future__ import annotations

import json
import re
import statistics

import pytest

from perfbench import run
from perfbench.child import execute
from perfbench.stats import chunk_minima, percentile, verdict, weighted_percentile
from perfbench.tracing import self_times
from perfbench.workloads import WORKLOADS


def test_percentile_is_linear_interpolation():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in (1, 25, 50, 99):
        assert percentile(values, p) == pytest.approx(cuts[p - 1])


def test_weighted_percentile_equals_the_expanded_list():
    pairs = [(3.0, 2), (1.0, 3), (10.0, 1), (4.0, 0)]
    expanded = [v for v, w in pairs for _ in range(w)]
    for p in (0, 10, 50, 83, 99, 100):
        assert weighted_percentile(pairs, p) == pytest.approx(percentile(expanded, p))


def test_chunk_minima_drop_spells_that_hit_different_chunks():
    clean = [1.0, 2.0, 3.0, 4.0, 5.0]
    # Repeat r runs slow on every chunk but chunk r: spells far longer
    # than a chunk, which a per-chunk median would keep.
    table = [
        [t * (1.0 if i == r else 1.9) for i, t in enumerate(clean)]
        for r in range(len(clean))
    ]
    assert chunk_minima(table) == clean
    # Every repeat was hit, so every whole-run total overstates the work.
    assert min(sum(row) for row in table) > sum(clean)
    with pytest.raises(ValueError):
        chunk_minima([[1.0], [1.0, 2.0]])


def test_span_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90]
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["a1", 15, 25, 1, 0],
        ["b", 50, 90, 0, 1],
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    assert sum(self_times(spans)) == 100


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([100, 101, 99, 100, 100], [140, 141, 139, 140, 140], "higher", "better"),
        ([100, 101, 99, 100, 100], [60, 61, 59, 60, 60], "higher", "worse"),
        ([100, 101, 99, 100, 100], [101, 99, 100, 100, 101], "higher", "unchanged"),
        ([100, 160, 50, 100, 140], [101, 99, 100, 100, 101], "higher", "unresolved"),
        ([10.0, 10.1, 9.9, 10.0, 10.0], [14.0, 14.1, 13.9, 14.0, 14.0], "lower", "worse"),
    ],
)
def test_compare_verdicts(tmp_path, capsys, base, new, better, expected):
    outcome, _ = verdict(
        base, new, statistics.median(base), statistics.median(new), better, 0.1
    )
    assert outcome == expected
    metric = "throughput" if better == "higher" else "unit_p50_ms"
    files = []
    for label, runs in (("a", base), ("b", new)):
        document = {"workloads": {"campaign-grid": {"e2e": {metric: {
            "value": statistics.median(runs), "unit": "x", "resampled": runs,
        }}}}}
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(document))
        files.append(str(path))
    code = run.main(["--compare", *files])
    assert expected in capsys.readouterr().out
    assert code == (1 if expected in ("worse", "unresolved") else 0)


def test_benchmark_json_names_are_valid_and_all_reported(tmp_path):
    spec = run.spec()
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    for name in all_names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name

    workload = WORKLOADS["campaign-grid"]
    timed = []
    for _ in range(2):
        result = execute(workload(0, "tiny"), "timed", tmp_path)
        result["setup_s"] = 0.1
        timed.append(result)
    e2e = run.e2e_metrics(timed)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e.values())
    assert all(len(m["resampled"]) == run.RESAMPLES for m in e2e.values())

    traced = execute(workload(0, "tiny"), "traced", tmp_path)
    heap = execute(workload(0, "tiny"), "heap", tmp_path)
    layers = run.layer_metrics(timed[0], traced, heap)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["trace.coverage"] > 0.9
    assert layers["sim.self_share"] > layers["bench.self_share"] > 0
    assert layers["sim.events_per_unit"] > 0
    assert min(s["min_self_ns"] for s in traced["spans"].values()) >= 0
    assert {r["digest"] for r in (*timed, traced, heap)} == {timed[0]["digest"]}


def _fake_child(digest):
    def run_child(name, seed, mode):
        return {
            "chunks": [0.001, 0.002], "units": [1, 1], "cpu": 0.003, "wall": 0.003,
            "rss_mb": 30.0, "setup_s": 0.2, "elapsed_s": 0.3, "digest": digest,
            "attempted": 2, "failed": 0, "problems": [], "facts": {},
        }
    return run_child


def test_digest_mismatch_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "committed_digest", lambda *key: "expected")
    argv = ["--workload", "campaign-grid", "--repeat", "3", "--trace", "0"]
    monkeypatch.setattr(run, "run_child", _fake_child("expected"))
    assert run.main(argv) == 0
    monkeypatch.setattr(run, "run_child", _fake_child("something-else"))
    assert run.main(argv) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_a_real_child_process_reports_the_contract_line(monkeypatch, capsys):
    monkeypatch.setattr(run, "SIZE", "tiny")
    argv = ["--workload", "workload-contended", "--seed", "7", "--repeat", "1",
            "--trace", "0"]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 80 and last["failed"] == 0
    assert last["metrics"]["setup_s"]["unit"] == "s"
