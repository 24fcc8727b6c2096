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

The execution and persistence flags, and their wiring to the executor
and the record writer, are the shared sweep front-end
(:mod:`repro.runtime.frontend`), the same as ``repro campaign``'s.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.query import percentile
from ..errors import ScenarioError, WorkloadError
from ..runtime import ScanResult, SweepSpec, TrialRecord
from ..runtime.frontend import (
    Resume,
    add_sweep_flags,
    check_sweep_args,
    collect_overrides,
    csv_floats,
    csv_list,
    execute,
    long_flags,
    report,
)
from ..scenarios.registry import DEFAULT_HORIZON
from .spec import (
    DEFAULT_COUNT,
    DEFAULT_LIQUIDITY,
    DEFAULT_LOADS,
    WorkloadSpec,
    cell_fingerprints,
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
        type=csv_list,
        default=None,
        metavar="P1,P2",
        help="protocol axis (default: timebounded,htlc,weak,certified)",
    )
    parser.add_argument(
        "--loads",
        type=csv_floats,
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
        help=f"per-payment deadline span (default: {DEFAULT_HORIZON:,.0f})",
    )
    parser.add_argument(
        "--rho", type=float, default=0.0, metavar="R",
        help="clock-drift bound for every payment (default: 0)",
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
    add_sweep_flags(
        parser,
        unit="cells",
        record="payment",
        resume_rule="keep the longest prefix of whole matching cells and run the rest",
    )
    parser.add_argument(
        "--assert-monotone",
        action="store_true",
        help=(
            "exit non-zero unless the liquidity-failure rate is "
            "monotone non-decreasing in offered load for every protocol"
        ),
    )
    return parser


def cli_flags() -> List[str]:
    """Every long flag ``repro workload`` accepts (for docs checks)."""
    return long_flags(build_parser())


def _plan_resume(sweep: SweepSpec, scan: ScanResult) -> Resume:
    """Keep the longest whole-cell prefix of ``DIR``; re-run the rest."""
    diff = diff_workload(sweep, scan.records, (scan.manifest or {}).get("cells"))
    kept = ScanResult(
        records=diff.kept, manifest=scan.manifest, jsonl_bytes=diff.kept_bytes
    )
    return Resume(missing=diff.missing, keep=kept, reused=diff.completed_cells)


def _persisted_payments(cell_record: TrialRecord) -> List[TrialRecord]:
    """A finished cell's per-payment records (a failed cell persists none)."""
    return expand_cell_record(cell_record) if cell_record.ok else []


def workload_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    jobs = check_sweep_args(parser, args, "workload")

    # Omitted axes and seed fall back to the WorkloadSpec defaults.
    given = {
        field: value
        for field, value in (
            ("protocols", args.protocols), ("loads", args.loads), ("seed", args.seed)
        )
        if value is not None
    }
    try:
        spec = WorkloadSpec(
            **given,
            count=args.payments,
            timing=args.timing,
            adversary=args.adversary,
            topology_mix=parse_topology_mix(args.topology_mix),
            arrivals=args.arrivals,
            liquidity=args.liquidity,
            horizon=args.horizon,
            rho=args.rho,
            overrides=collect_overrides(args.overrides),
            audit="every-op" if args.audit else None,
        )
        sweep = spec.compile()
    except (WorkloadError, ScenarioError) as exc:
        parser.error(str(exc))

    run = execute(
        parser,
        args,
        sweep,
        jobs,
        plan=_plan_resume,
        expand=_persisted_payments,
        extra={
            "kind": "workload",
            "payments_per_cell": spec.count,
            "cells": cell_fingerprints(sweep),
        },
    )
    errors = [cell for cell in run.result.records if not cell.ok]
    if errors:
        print(errors[0].error)
        print(
            f"error: {len(errors)}/{len(run.to_run)} workload cells failed; "
            f"first: {errors[0].spec.coords!r}"
        )
        return 1
    unconserved = [
        cell.spec.coords for cell in run.result.records if not cell["conserved"]
    ]
    if unconserved:
        print(
            "error: liquidity conservation failed in cells: "
            + ", ".join(repr(c) for c in unconserved)
        )
        return 1

    # Per-payment values per cell, keyed by cell coords, for the table.
    cell_payments: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {
        tuple(cell.spec.coords): cell["payments"] for cell in run.result.records
    }
    if run.resume is not None:
        for record in run.resume.keep.records:
            cell_payments.setdefault(tuple(record.spec.coords[:-1]), []).append(
                record.values
            )
    rows = [
        (cell.coords, _cell_stats(cell_payments[cell.coords]))
        for cell in sweep.trials
        if cell.coords in cell_payments
    ]
    report(
        args, render_workload_table(rows), run, "cells",
        f"{len(sweep)} cells x {spec.count} payments",
    )
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
