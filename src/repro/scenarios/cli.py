"""``python -m repro campaign`` — run a declarative scenario matrix.

Usage::

    python -m repro campaign --protocols htlc,timebounded,weak \
        --timing sync,partial,async --adversaries none,delayer --trials 5
    python -m repro campaign --topologies linear-1,geom-5 --jobs 4
    python -m repro campaign --trials 20 --jobs 4 --out runs/big
    python -m repro campaign --from runs/big          # reload, no re-run
    python -m repro campaign --out runs/big --resume \
        --adversaries none,delayer,bob-edge           # grow the matrix
    python -m repro campaign --list-axes

Axis values are comma-separated registry names (see ``--list-axes``);
the cross-product of all axes times ``--trials`` Monte-Carlo
repetitions compiles to one sweep on the runtime, so ``--jobs N`` fans
trials out over a process pool and still renders a byte-identical
table.

``--out DIR`` streams every per-trial record to ``DIR/records.jsonl``
(+ a flat ``records.csv`` and a manifest) as the executor yields it;
``--from DIR`` reloads such a directory and reaggregates without
re-running anything — the table is byte-identical to the original
run's, so downstream analysis scales to matrix sizes where re-running
is not an option.

``--out DIR --resume`` makes campaigns *incremental*: the requested
cell cross-product is diffed against the records already persisted in
``DIR`` (cells are content-addressed by their grid coordinates — the
``derive_seed`` machinery makes a cell's seed a pure function of
them), only the missing cells execute, and their records append to
the same JSONL with the existing bytes untouched and the manifest's
``revision`` bumped.  Grow a matrix axis-by-axis across invocations;
an interrupted run resumes from its last complete record.  Slice the
result with ``python -m repro analyze DIR``.

The execution and persistence flags, and their wiring to the executor
and the record writer, are the shared sweep front-end
(:mod:`repro.runtime.frontend`); this module adds the matrix axes,
``--from`` and the campaign table.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..errors import PersistenceError, ScenarioError
from ..protocols.base import available_protocols
from ..runtime import ScanResult, SweepSpec, TrialError
from ..runtime.frontend import (
    Resume,
    add_sweep_flags,
    check_sweep_args,
    collect_overrides,
    csv_floats,
    csv_list,
    execute,
    given_run_flags,
    long_flags,
    report,
    write_table,
)
from .campaign import (
    aggregate_campaign,
    diff_campaign,
    load_campaign,
    merge_resumed,
    render_table,
)
from .registry import DEFAULT_HORIZON, axis_descriptions
from .spec import CampaignSpec

#: (flag, namespace attribute) of the matrix axes, which ``--from``
#: rejects alongside the shared run flags.
MATRIX_FLAGS = (
    ("--protocols", "protocols"),
    ("--timing", "timings"),
    ("--adversaries", "adversaries"),
    ("--topologies", "topologies"),
    ("--trials", "trials"),
    ("--rho", "rho"),
    ("--horizon", "horizon"),
)


def _trial_error_hint(skip_errors: bool, out_dir: Optional[str]) -> str:
    """The one recovery message both aggregation failure paths print."""
    hint = (
        "no trials survived to aggregate"
        if skip_errors
        else "use --skip-errors to aggregate the surviving trials"
    )
    if out_dir:
        hint += f"; the records are preserved in {out_dir}"
    return hint


def _print_axes() -> None:
    """One block per axis, names with their registry descriptions."""
    for axis, entries in axis_descriptions().items():
        print(f"{axis}:")
        width = max(len(name) for name in entries)
        for name, doc in entries.items():
            print(f"  {name.ljust(width)}  {doc}")
    print("(topology patterns resolve for any N >= 1, e.g. linear-7)")


def _plan_resume(sweep: SweepSpec, scan: ScanResult) -> Resume:
    """Run the cells ``DIR`` lacks; every persisted record stays."""
    diff = diff_campaign(sweep, scan.records)
    return Resume(missing=diff.missing, keep=scan, reused=len(scan.records))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Run a protocol x timing x adversary x topology matrix.",
    )
    # Matrix flags keep None as their parse-time default so an
    # explicitly passed value — under any argparse spelling, including
    # prefix abbreviations and -j4 — is distinguishable from "not
    # given"; the real defaults are filled in after the --from
    # conflict check.
    parser.add_argument(
        "--protocols",
        type=csv_list,
        default=None,
        metavar="P1,P2",
        help=f"protocol axis (default: {','.join(available_protocols())})",
    )
    parser.add_argument(
        "--timing",
        "--timings",
        dest="timings",
        type=csv_list,
        default=None,
        metavar="T1,T2",
        help="timing-model axis (default: sync,partial,async)",
    )
    parser.add_argument(
        "--adversaries",
        type=csv_list,
        default=None,
        metavar="A1,A2",
        help="adversary axis (default: none)",
    )
    parser.add_argument(
        "--topologies",
        type=csv_list,
        default=None,
        metavar="G1,G2",
        help="topology axis (default: linear-3)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, metavar="K",
        help="Monte-Carlo repetitions per matrix cell (default: 3)",
    )
    parser.add_argument(
        "--rho", type=csv_floats, default=None, metavar="R1,R2",
        help=(
            "clock-drift axis: one or more bounds (e.g. 0.0,0.1); the "
            "values enter the cell coordinates, so drift sweeps like "
            "any other axis (default: scalar 0 outside the grid)"
        ),
    )
    parser.add_argument(
        "--horizon", type=csv_floats, default=None, metavar="H1,H2",
        help=(
            "horizon axis: one or more global-time backstops (e.g. "
            "50,100); values enter the cell coordinates (default: "
            f"scalar {DEFAULT_HORIZON:,.0f} outside the grid)"
        ),
    )
    add_sweep_flags(
        parser,
        unit="trials",
        record="trial",
        resume_rule="run only the requested cells DIR lacks and append them",
    )
    parser.add_argument(
        "--from",
        dest="from_dir",
        metavar="DIR",
        default=None,
        help=(
            "reaggregate a --out directory instead of running trials "
            "(matrix and run flags conflict and are rejected; the table "
            "is byte-identical to the original run's)"
        ),
    )
    parser.add_argument(
        "--skip-errors",
        action="store_true",
        help=(
            "aggregate over successful trials when some failed (noted "
            "in the table) instead of aborting — the recovery path for "
            "an expensive --from directory"
        ),
    )
    parser.add_argument(
        "--list-axes",
        action="store_true",
        help="list registered axis values with descriptions and exit",
    )
    return parser


def cli_flags() -> List[str]:
    """Every long flag ``repro campaign`` accepts."""
    return long_flags(build_parser())


def _reaggregate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``--from DIR``: re-render a persisted campaign, running nothing."""
    # Silently ignoring --trials/--protocols/... here would let a stale
    # table masquerade as the re-run the flags asked for.  Checked on
    # the parsed namespace, so every argparse spelling (abbreviations,
    # -j4, --flag=value) is caught.
    conflicting = [
        flag for flag, attr in MATRIX_FLAGS if getattr(args, attr) is not None
    ] + given_run_flags(args)
    if conflicting:
        parser.error(
            "--from reaggregates existing records and runs no "
            f"trials; drop {', '.join(conflicting)}"
        )
    try:
        result = load_campaign(args.from_dir, skip_errors=args.skip_errors)
    except TrialError as exc:
        # The persisted run had failed trials — loadable, but not
        # aggregatable without dropping them (and with nothing left to
        # drop to, not aggregatable at all).
        parser.error(f"{exc}\n({_trial_error_hint(args.skip_errors, None)})")
    except (PersistenceError, ScenarioError) as exc:
        parser.error(str(exc))
    table = render_table(result)
    print(table)
    print(f"(reaggregated {args.from_dir}, no trials re-run)")
    if args.output:
        write_table(table, args.output)
    return 0


def campaign_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_axes:
        _print_axes()
        return 0
    if args.from_dir is not None:
        return _reaggregate(parser, args)

    jobs = check_sweep_args(parser, args, "matrix")
    # Only protocols/timings have CLI-level defaults; every other
    # matrix default lives once, on the CampaignSpec dataclass —
    # omitted flags simply aren't passed.
    matrix = {
        "protocols": args.protocols if args.protocols is not None
        else available_protocols(),
        "timings": args.timings if args.timings is not None
        else ["sync", "partial", "async"],
    }
    for field in ("adversaries", "topologies", "trials", "seed"):
        value = getattr(args, field)
        if value is not None:
            matrix[field] = value
    # rho/horizon arrive as value lists and become grid axes (their
    # values join the cell coordinates); omitting the flag keeps the
    # historical scalar behaviour — and the historical seeds.
    if args.rho is not None:
        matrix["rhos"] = args.rho
    if args.horizon is not None:
        matrix["horizons"] = args.horizon
    overrides = collect_overrides(args.overrides)
    if overrides:
        matrix["overrides"] = overrides
    try:
        campaign = CampaignSpec(**matrix)
        sweep = campaign.compile()
    except ScenarioError as exc:
        parser.error(str(exc))

    run = execute(parser, args, sweep, jobs, plan=_plan_resume)
    sweep_result = run.result
    if run.resume is not None:
        # Aggregate exactly what the directory now holds: persisted
        # records first (their on-disk order), new ones appended.
        sweep_result = merge_resumed(
            run.resume.keep.records, sweep_result, sweep.sweep_id, jobs=jobs
        )
    try:
        result = aggregate_campaign(
            sweep_result,
            skip_errors=args.skip_errors,
            skipped=campaign.skipped_cells(),
        )
    except TrialError as exc:
        parser.error(f"{exc}\n({_trial_error_hint(args.skip_errors, args.out)})")
    cells = len(sweep) // campaign.trials
    report(
        args, render_table(result), run, "trials",
        f"{len(sweep)} trials over {cells} cells",
    )
    return 0


__all__ = ["build_parser", "campaign_main", "cli_flags"]
