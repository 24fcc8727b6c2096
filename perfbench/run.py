#!/usr/bin/env python3
"""The benchmark's command line: measure, trace and compare.

    python3 perfbench/run.py --workload campaign-grid --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --repeat 5 --out a.json
    python3 perfbench/run.py --compare a.json b.json

With ``--workload NAME`` one workload runs: ``--trace 0`` measures the
end-to-end metrics for ``--seconds`` (or exactly ``--repeat`` repeats),
``--trace 1`` makes the traced pass and reports the per-layer metrics.
Without it, all five workloads run ``--repeat`` times each, interleaved
round-robin, and then each gets a traced pass.  Every repeat and pass is
a fresh single-threaded child process (``perfbench/child.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output checked out and nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import (  # noqa: E402
    chunk_minima,
    quartiles,
    spread,
    verdict,
    weighted_percentile,
)
from perfbench.tracing import COUNTS, LAYERS, SPANS  # noqa: E402
from perfbench.workloads import WORKLOADS, AnalyzeRecords  # noqa: E402

WORKDIR = ROOT / ".perfbench"
#: Size of every workload the command runs; tests shrink it to "tiny".
SIZE = "full"

#: A time-bounded run still takes at least this many repeats, so every
#: chunk minimum has several chances to meet a quiet host, and at most
#: this many.
MIN_REPEATS, MAX_REPEATS = 5, 40
#: Bootstrap resamples behind the spread of each estimate.
RESAMPLES = 25
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A child failed to run; the benchmark cannot report a result."""


@lru_cache(maxsize=None)
def _json(name: str) -> Any:
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return _json("BENCHMARK.json")


def e2e_specs() -> Dict[str, Dict[str, Any]]:
    return {metric["name"]: metric for metric in spec()["end_to_end"]}


def layer_unit(metric: str) -> str:
    return next(m["unit"] for m in spec()["per_layer"] if m["name"] == metric)


def committed_digest(name: str, seed: int) -> Optional[str]:
    """The output digest committed in ``perfbench/digests.json``, if any."""
    return _json("perfbench/digests.json").get(name, {}).get(SIZE, {}).get(str(seed))


def run_child(name: str, seed: int, mode: str) -> Dict[str, Any]:
    """One repeat of ``name`` in a fresh interpreter (see ``child.py``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["REPRO_JOBS"] = "1"
    WORKDIR.mkdir(exist_ok=True)
    command = [
        sys.executable, "-m", "perfbench.child", name, str(seed), SIZE, mode,
        str(WORKDIR),
    ]
    spawned = time.time()
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{name} ({mode}) ran past {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"{name} ({mode}) exited {proc.returncode}: {tail}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.time() - spawned
    return result


def unit_ms(times: List[float], units: List[int], p: float) -> float:
    """p-th percentile over units of their chunk's CPU milliseconds per unit."""
    return 1000 * weighted_percentile(
        [(t / u, u) for t, u in zip(times, units) if u], p
    )


def estimates(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics estimated from some timed repeats of one workload.

    CPU metrics come from per-chunk minima over the repeats; ``setup_s``
    and ``peak_rss_mb`` are medians over them.
    """
    units = results[0]["units"]
    minima = chunk_minima([r["chunks"] for r in results])
    return {
        "throughput": sum(units) / sum(minima),
        "unit_p50_ms": unit_ms(minima, units, 50),
        "unit_p99_ms": unit_ms(minima, units, 99),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }


def e2e_metrics(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one workload's timed repeats.

    ``value`` is the estimate from all repeats; ``runs`` holds each
    repeat's own value, whose quartiles ``q1``/``q3`` show the host's
    noise; ``resampled`` holds the estimate over :data:`RESAMPLES`
    bootstrap resamples of the repeats, whose spread is the estimate's
    own and is what ``--compare`` judges.
    """
    if any(r["units"] != results[0]["units"] for r in results):
        raise BenchError("repeats ran different chunks; the workload is not deterministic")
    values = estimates(results)
    runs = [estimates([r]) for r in results]
    draw = random.Random(0)
    resampled = [
        estimates(draw.choices(results, k=len(results))) for _ in range(RESAMPLES)
    ]
    metrics = {}
    for name, metric in e2e_specs().items():
        q1, _, q3 = quartiles([run[name] for run in runs])
        metrics[name] = {
            "value": values[name], "unit": metric["unit"], "q1": q1, "q3": q3,
            "runs": [run[name] for run in runs],
            "resampled": [sample[name] for sample in resampled],
        }
    return metrics


def e2e_extras(name: str, results: List[Dict[str, Any]]) -> Dict[str, float]:
    """Figures printed beside the metrics but not gated."""
    total = sum(results[0]["units"])
    extras = {
        "whole_run_median_throughput": total / statistics.median(r["cpu"] for r in results),
        "runtime.wait_share": statistics.median(
            (r["wall"] - r["cpu"]) / r["wall"] for r in results
        ),
    }
    if name == AnalyzeRecords.name:
        minima = chunk_minima([r["chunks"] for r in results])
        rows = results[0]["units"][0]
        stage = dict(zip(AnalyzeRecords.STAGES, minima))
        extras["runtime.write_rows_per_s"] = rows / stage["write"]
        extras["runtime.load_rows_per_s"] = rows / stage["load"]
        extras["analysis.projected_load_rows_per_s"] = rows / stage["load-projected"]
        extras["analysis.query_ms"] = 1000 * stage["query"]
        extras["analysis.diff_ms"] = 1000 * stage["diff"]
    return extras


def layer_metrics(
    base: Dict[str, Any], traced: Dict[str, Any], heap: Dict[str, Any]
) -> Dict[str, float]:
    """The per-layer metrics from an untraced, a traced and a heap pass."""
    units = sum(traced["units"])
    wall = traced["wall"]
    counts = traced["counts"]
    metrics = {f"{layer}.self_share": traced["layers"][layer] / wall for layer in LAYERS}
    for _, _, span in SPANS:
        self_s = traced["spans"].get(span, {}).get("self_s", 0.0)
        metrics[f"span.{span}.self_share"] = self_s / wall
    metrics["sim.events_per_unit"] = traced["events"] / units
    for key in COUNTS:
        metrics[f"{key}_per_unit"] = counts[key] / units
    metrics["py.calls_per_unit"] = counts["py.calls"] / units
    sessions = counts["core.sessions"]
    metrics["core.arena_reuse_ratio"] = (
        counts["core.arena_resets"] / sessions if sessions else 0.0
    )
    metrics["workload.refusal_ratio"] = base["facts"].get("refused", 0) / units
    metrics["runtime.bytes_per_row"] = base["facts"].get("bytes_per_row", 0.0)
    metrics["gc.gen0_per_unit"] = base["gen0"] / units
    metrics["mem.peak_traced_mb"] = heap["heap_peak_mb"]
    metrics["runtime.wait_share"] = (base["wall"] - base["cpu"]) / base["wall"]
    metrics["trace.overhead"] = wall / base["cpu"]
    metrics["trace.coverage"] = sum(traced["layers"].values()) / wall
    return metrics


def verify(name: str, seed: int, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Outputs must agree across repeats and with the committed digest."""
    problems: List[str] = []
    digests = sorted({r["digest"] for r in results})
    if len(digests) > 1:
        problems.append(f"outputs differ between repeats: {digests}")
    expected = committed_digest(name, seed)
    if expected is not None and digests != [expected]:
        problems.append(f"output digest {digests} != committed {expected}")
    for r in results:
        problems += [p for p in r["problems"] if p not in problems]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems,
        "digest": digests[0],
        "committed": expected,
    }


def timed_repeats(
    name: str, seed: int, seconds: float, repeat: Optional[int]
) -> List[Dict[str, Any]]:
    """Repeats of one workload: exactly ``repeat``, or as many as fit ``seconds``."""
    results: List[Dict[str, Any]] = []
    deadline = time.monotonic() + seconds
    while True:
        results.append(run_child(name, seed, "timed"))
        count = len(results)
        if repeat is not None:
            if count >= repeat:
                return results
            continue
        typical = statistics.median(r["elapsed_s"] for r in results)
        if count >= MAX_REPEATS or (
            count >= MIN_REPEATS and time.monotonic() + typical > deadline
        ):
            return results


def traced_pass(name: str, seed: int) -> List[Dict[str, Any]]:
    """The per-layer pass: an untraced baseline, a traced and a heap repeat."""
    return [run_child(name, seed, mode) for mode in ("timed", "traced", "heap")]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    check = entry["check"]
    committed = (
        "no committed digest for this seed" if check["committed"] is None
        else "matches committed" if check["digest"] == check["committed"]
        else "MISMATCH"
    )
    print(f"== {name} (unit: {WORKLOADS[name].unit}) ==")
    for metric, m in entry.get("e2e", {}).items():
        print(
            f"  {metric:<30} {_fmt(m['value']):>12} {m['unit']:<6}"
            f" q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  n={len(m['runs'])}"
            f"  estimate spread {spread(m['resampled']):.1%}"
        )
    for metric, value in entry.get("extras", {}).items():
        print(f"  {metric:<30} {_fmt(value):>12}")
    for metric, value in entry.get("per_layer", {}).items():
        print(f"  {metric:<30} {_fmt(value):>12} {layer_unit(metric)}")
    for span, s in sorted(entry.get("spans", {}).items()):
        print(
            f"  span {span:<25} n={s['count']:<7} self {_fmt(s['self_s'])} s"
            f"  p50 {_fmt(s['p50_ms'])} ms  self p50 {_fmt(s['self_p50_ms'])} ms"
        )
    print(
        f"  digest {check['digest']} ({committed}); "
        f"error_rate {_fmt(check['error_rate'])}"
    )
    for problem in check["problems"]:
        print(f"  PROBLEM: {problem}")


def measure(args) -> Dict[str, Any]:
    """Run the requested workloads; returns the result document."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.trace if args.trace is not None else int(args.workload == "all")
    timed = args.workload == "all" or not trace
    entries: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    children: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    if timed:
        if args.workload == "all":
            for _ in range(args.repeat or 5):
                for name in names:
                    children[name].append(run_child(name, args.seed, "timed"))
        else:
            children[names[0]] = timed_repeats(
                names[0], args.seed, args.seconds, args.repeat
            )
        for name, runs in children.items():
            entries[name].update(e2e=e2e_metrics(runs), extras=e2e_extras(name, runs))
    for name in names:
        if trace:
            base, traced, heap = traced_pass(name, args.seed)
            entries[name].update(
                per_layer=layer_metrics(base, traced, heap),
                spans=traced["spans"],
                spans_file=traced["spans_file"],
            )
            children[name] += [base, traced, heap]
        entries[name]["check"] = verify(name, args.seed, children[name])
    return {
        "seed": args.seed,
        "size": SIZE,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workloads": entries,
    }


def summary_line(document: Dict[str, Any]) -> Dict[str, Any]:
    """The last output line: overall verdict and every metric by name."""
    entries = document["workloads"]
    single = len(entries) == 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, entry in entries.items():
        prefix = "" if single else f"{name}/"
        for metric, m in entry.get("e2e", {}).items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
        for metric, value in entry.get("per_layer", {}).items():
            metrics[prefix + metric] = {"value": value, "unit": layer_unit(metric)}
    checks = [entry["check"] for entry in entries.values()]
    return {
        "correct": all(c["correct"] for c in checks),
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "metrics": metrics,
    }


def compare(base_file: str, new_file: str) -> int:
    """Print a verdict per workload and end-to-end metric; 1 if any is bad."""
    base = json.loads(Path(base_file).read_text(encoding="utf-8"))["workloads"]
    new = json.loads(Path(new_file).read_text(encoding="utf-8"))["workloads"]
    bad = 0
    for name in [n for n in base if n in new]:
        for metric, bounds in e2e_specs().items():
            a = base[name].get("e2e", {}).get(metric)
            b = new[name].get("e2e", {}).get(metric)
            if a is None or b is None:
                continue
            outcome, change = verdict(
                a["resampled"], b["resampled"], a["value"], b["value"],
                bounds["better"], bounds["bound"],
            )
            bad += outcome in ("worse", "unresolved")
            print(
                f"{name:<20} {metric:<13} {outcome:<10} {change:+.2%}"
                f"  (bound {bounds['bound']:.0%}; {_fmt(a['value'])} -> "
                f"{_fmt(b['value'])} {bounds['unit']})"
            )
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec()["run_seconds"],
        help="measuring budget of a single-workload run (default: %(default)s)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="exact repeat count (default: fill --seconds; 5 for all workloads)",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--out", metavar="FILE", help="write the result document")
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASE", "NEW"),
        help="compare two --out documents instead of measuring",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.repeat is not None and args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        document = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, entry in document["workloads"].items():
        print_workload(name, entry)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    summary = summary_line(document)
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
