"""``python -m repro workload`` — concurrent payments under contention.

Usage::

    python -m repro workload --protocols htlc,weak --loads 0.02,0.08 \
        --payments 200 --liquidity 250 --jobs 2
    python -m repro workload --topology-mix linear-3:2,tree-2:1 \
        --arrivals poisson --out runs/wl
    python -m repro workload --out runs/wl --resume --loads 0.02,0.08,0.2
    python -m repro workload --payments 50 --audit   # per-op invariants

Each (protocol, load) point is one **cell**: ``--payments`` arrivals on
one shared kernel drawing funding from one shared liquidity substrate
(see :mod:`repro.workload.runner`).  Cells fan out over ``--jobs``
worker processes like campaign trials, and the table — and, with
``--out``, every persisted byte of ``records.jsonl`` — is identical
whatever the job count.

``--out DIR`` persists one record per *payment* (coords = cell coords +
payment index, seed = the payment's own derived seed), so
``python -m repro analyze DIR`` slices workload records exactly like
campaign records; they add the ``arrival_time`` and ``liquidity_failed``
columns.  ``--resume`` keeps the longest prefix of whole, matching
cells byte-identical and re-runs the rest — growing the load axis or
repairing an interrupted run both work the campaign way.

``--assert-monotone`` exits non-zero unless, for every protocol, the
liquidity-failure rate is non-decreasing in offered load — the
substrate's sanity property CI pins.
"""

from __future__ import annotations

import argparse
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.query import percentile
from ..errors import PersistenceError, ScenarioError, WorkloadError
from ..runtime import (
    RecordWriter,
    ScanResult,
    default_jobs,
    resolve_executor,
    scan_records,
)
from ..scenarios.cli import _collect_overrides, _csv, _csv_floats, _parse_set
from .spec import (
    DEFAULT_COUNT,
    DEFAULT_LIQUIDITY,
    DEFAULT_LOADS,
    WorkloadSpec,
    diff_workload,
    expand_cell_record,
    parse_topology_mix,
)


def _cell_stats(payments: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Table row ingredients for one cell's per-payment values."""
    launched = [p for p in payments if not p["liquidity_failed"]]
    failures = len(payments) - len(launched)
    ok = sum(
        1
        for p in launched
        if (p["def1_ok"] if p["def1_ok"] is not None else p["def2_ok"])
    )
    latencies = [p["latency"] for p in launched]
    span = max(
        (p["arrival_time"] + p["latency"] for p in launched), default=0.0
    )
    return {
        "payments": len(payments),
        "liq_failed": failures,
        "liq_rate": failures / len(payments) if payments else 0.0,
        "def_ok": ok / len(launched) if launched else 1.0,
        "p50": percentile(latencies, 50.0) if latencies else 0.0,
        "p95": percentile(latencies, 95.0) if latencies else 0.0,
        "throughput": len(launched) / span if span > 0.0 else 0.0,
    }


def render_workload_table(
    rows: Sequence[Tuple[Tuple[Any, ...], Dict[str, Any]]]
) -> str:
    """Fixed-width table: one row per (protocol, load) cell."""
    header = (
        f"{'protocol':<12} {'load':>8} {'payments':>8} {'liq_fail':>8} "
        f"{'liq_rate':>8} {'def_ok':>7} {'p50':>9} {'p95':>9} {'thruput':>9}"
    )
    lines = [header, "-" * len(header)]
    for coords, stats in rows:
        protocol, load = coords[0], coords[1]
        lines.append(
            f"{protocol:<12} {load:>8g} {stats['payments']:>8d} "
            f"{stats['liq_failed']:>8d} {stats['liq_rate']:>8.3f} "
            f"{stats['def_ok']:>7.3f} {stats['p50']:>9.3f} "
            f"{stats['p95']:>9.3f} {stats['throughput']:>9.4f}"
        )
    return "\n".join(lines)


def check_monotone_liquidity(
    rows: Sequence[Tuple[Tuple[Any, ...], Dict[str, Any]]]
) -> List[str]:
    """Violation messages where failure rate decreases as load grows."""
    by_protocol: Dict[Any, List[Tuple[float, float]]] = {}
    for coords, stats in rows:
        by_protocol.setdefault(coords[0], []).append(
            (float(coords[1]), stats["liq_rate"])
        )
    problems = []
    for protocol, points in by_protocol.items():
        points.sort()
        for (lo_load, lo_rate), (hi_load, hi_rate) in zip(points, points[1:]):
            if hi_rate < lo_rate:
                problems.append(
                    f"{protocol}: liquidity-failure rate fell from "
                    f"{lo_rate:.3f} at load {lo_load:g} to {hi_rate:.3f} "
                    f"at load {hi_load:g}"
                )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro workload",
        description=(
            "Run concurrent multi-payment workloads on a shared "
            "liquidity substrate."
        ),
    )
    parser.add_argument(
        "--protocols",
        type=_csv,
        default=None,
        metavar="P1,P2",
        help="protocol axis (default: timebounded,htlc,weak,certified)",
    )
    parser.add_argument(
        "--loads",
        type=_csv_floats,
        default=None,
        metavar="L1,L2",
        help=(
            "offered-load axis: payment arrivals per time unit; each "
            f"value is one cell (default: {','.join(str(l) for l in DEFAULT_LOADS)})"
        ),
    )
    parser.add_argument(
        "--payments",
        type=int,
        default=DEFAULT_COUNT,
        metavar="N",
        help=f"payments per cell (default: {DEFAULT_COUNT})",
    )
    parser.add_argument(
        "--timing",
        default="sync",
        metavar="T",
        help="timing model, a campaign registry name (default: sync)",
    )
    parser.add_argument(
        "--adversary",
        default="none",
        metavar="A",
        help="adversary, a campaign registry name (default: none)",
    )
    parser.add_argument(
        "--topology-mix",
        default="linear-3",
        metavar="K1:W1,K2:W2",
        help=(
            "topology sampling mix with relative weights, e.g. "
            "linear-3:2,tree-2:1 (default: linear-3)"
        ),
    )
    parser.add_argument(
        "--arrivals",
        choices=("uniform", "poisson"),
        default="uniform",
        help="arrival process (default: uniform; first arrival at t=0)",
    )
    parser.add_argument(
        "--liquidity",
        type=int,
        default=DEFAULT_LIQUIDITY,
        metavar="U",
        help=(
            "units endowed per (escrow, asset) liquidity pool "
            f"(default: {DEFAULT_LIQUIDITY})"
        ),
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=None,
        metavar="H",
        help="per-payment deadline span (default: protocol campaign default)",
    )
    parser.add_argument(
        "--rho", type=float, default=0.0, metavar="R",
        help="clock-drift bound for every payment (default: 0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default: 0)"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        type=_parse_set,
        action="append",
        default=None,
        metavar="PROTO.OPT=VAL",
        help="per-protocol option override, repeatable (campaign syntax)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "re-check every ledger's conservation audit and the "
            "substrate's global conservation after every mutating "
            "ledger operation (slow; the invariant-harness mode)"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes over cells (default: $REPRO_JOBS or 1; "
            "records are byte-identical whatever N)"
        ),
    )
    parser.add_argument(
        "--chunksize",
        type=int,
        default=None,
        metavar="C",
        help="cells per worker batch for parallel runs",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=(
            "stream one record per payment to DIR (records.jsonl + "
            "records.csv + manifest.json), sliceable with "
            "`python -m repro analyze DIR`"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --out DIR: keep the longest prefix of whole matching "
            "cells byte-identical and run only the rest (grows axes; "
            "repairs interrupted runs)"
        ),
    )
    parser.add_argument(
        "--assert-monotone",
        action="store_true",
        help=(
            "exit non-zero unless the liquidity-failure rate is "
            "monotone non-decreasing in offered load for every protocol"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the rendered table to FILE",
    )
    return parser


def cli_flags() -> List[str]:
    """Every long flag the parser accepts (for docs-consistency checks)."""
    flags: List[str] = []
    for action in build_parser()._actions:
        flags.extend(
            opt for opt in action.option_strings if opt.startswith("--")
        )
    return sorted(set(flags) - {"--help"})


def workload_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    if args.resume and not args.out:
        parser.error("--resume grows a persisted workload and needs --out DIR")

    try:
        spec = WorkloadSpec(
            protocols=tuple(
                args.protocols
                if args.protocols is not None
                else ("timebounded", "htlc", "weak", "certified")
            ),
            loads=tuple(args.loads if args.loads is not None else DEFAULT_LOADS),
            count=args.payments,
            timing=args.timing,
            adversary=args.adversary,
            topology_mix=parse_topology_mix(args.topology_mix),
            arrivals=args.arrivals,
            liquidity=args.liquidity,
            horizon=args.horizon,
            rho=args.rho,
            seed=args.seed,
            overrides=_collect_overrides(args.overrides),
            audit="every-op" if args.audit else None,
        )
        sweep = spec.compile()
    except (WorkloadError, ScenarioError) as exc:
        parser.error(str(exc))

    scan = None
    diff = None
    if args.resume:
        try:
            scan = scan_records(args.out)
            diff = diff_workload(sweep, scan.records)
        except PersistenceError as exc:
            parser.error(str(exc))
        to_run = diff.missing
    else:
        to_run = sweep

    # Per-payment values per cell, keyed by cell coords, for the table.
    cell_payments: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
    if diff is not None:
        for record in diff.kept:
            cell_payments.setdefault(tuple(record.spec.coords[:-1]), []).append(
                record.values
            )

    errors = []
    unconserved = []

    def absorb(cell_record) -> None:
        """Fold one finished cell into the table (and flag problems)."""
        if cell_record.error is not None:
            errors.append(cell_record)
            return
        if not cell_record.values.get("conserved", False):
            unconserved.append(cell_record.spec.coords)
        cell_payments[tuple(cell_record.spec.coords)] = list(
            cell_record.values["payments"]
        )

    t0 = time.perf_counter()
    with resolve_executor(jobs=jobs, chunksize=args.chunksize) as executor:
        if args.out:
            trimmed = (
                ScanResult(
                    records=diff.kept,
                    manifest=scan.manifest,
                    jsonl_bytes=diff.kept_bytes,
                )
                if diff is not None
                else None
            )
            try:
                writer = RecordWriter(
                    args.out, sweep_id=sweep.sweep_id, resume_from=trimmed
                )
            except OSError as exc:
                parser.error(f"cannot write records to {args.out}: {exc}")
            except PersistenceError as exc:
                parser.error(str(exc))

            def sink(cell_record) -> None:
                absorb(cell_record)
                if cell_record.error is None:
                    for payment_record in expand_cell_record(cell_record):
                        writer.write(payment_record)

            with writer:
                executor.run(to_run, sink=sink)
                writer.close(
                    wall_seconds=time.perf_counter() - t0,
                    jobs=jobs,
                    extra={"kind": "workload", "payments_per_cell": spec.count},
                )
        else:
            executor.run(to_run, sink=absorb)
    elapsed = time.perf_counter() - t0

    if errors:
        first = errors[0]
        print(first.error)
        print(
            f"error: {len(errors)}/{len(to_run)} workload cells failed; "
            f"first: {first.spec.coords!r}"
        )
        return 1
    if unconserved:
        print(
            "error: liquidity conservation failed in cells: "
            + ", ".join(repr(c) for c in unconserved)
        )
        return 1

    rows = [
        (cell.coords, _cell_stats(cell_payments[cell.coords]))
        for cell in sweep.trials
        if cell.coords in cell_payments
    ]
    table = render_workload_table(rows)
    print(table)
    if diff is not None:
        footer = (
            f"({len(to_run)} cells run, {diff.completed_cells} reused from "
            f"{args.out}, in {elapsed:.1f}s, jobs={jobs})"
        )
    else:
        footer = (
            f"({len(sweep)} cells x {spec.count} payments in "
            f"{elapsed:.1f}s, jobs={jobs})"
        )
    print(footer)
    if args.out:
        print(f"wrote {writer.count} records to {args.out}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
        print(f"wrote {args.output}")
    if args.assert_monotone:
        problems = check_monotone_liquidity(rows)
        if problems:
            for problem in problems:
                print(f"monotonicity violation: {problem}")
            return 2
        print("liquidity-failure rate is monotone in offered load")
    return 0


__all__ = [
    "build_parser",
    "check_monotone_liquidity",
    "cli_flags",
    "render_workload_table",
    "workload_main",
]
