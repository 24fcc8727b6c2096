"""``python -m repro analyze`` — slice a persisted record directory.

Usage::

    python -m repro analyze runs/big
    python -m repro analyze runs/big --group-by protocol,timing
    python -m repro analyze runs/big --where topology=geom-4 \
        --metrics success,p90_latency,def1_ok
    python -m repro analyze runs/big --format json --output report.json
    python -m repro analyze runs/big --partial      # no manifest needed
    python -m repro analyze runs/new --against runs/old   # regression diff
    python -m repro analyze --list-metrics

``DIR`` is a ``--out`` directory from ``python -m repro campaign`` (or
any persisted sweep).  The records load once into a columnar store;
``--where`` filters rows by column equality, ``--group-by`` groups
them (first-seen order — spec order for a campaign), and ``--metrics``
reduces each group.  Value metrics cover a group's *successful* runs;
failed trials are counted by the ``dropped`` metric, never silently
folded into denominators.  Text output formats numbers exactly as the
campaign table does, so shared cells compare byte-for-byte.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from ..errors import PersistenceError, ScenarioError
from ..runtime.frontend import csv_list, long_flags, write_table
from .query import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    METRICS,
    analyze_store,
    diff_stores,
)
from .render import RENDERERS, render
from .store import RecordStore


def _parse_where(clauses: List[str]) -> Dict[str, str]:
    """``key=value`` pairs (repeatable, comma-splittable) to a dict."""
    parsed: Dict[str, str] = {}
    for clause in clauses:
        for pair in csv_list(clause):
            key, eq, value = pair.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise ScenarioError(
                    f"malformed --where clause {pair!r}; expected "
                    "column=value (e.g. --where topology=geom-4)"
                )
            key = key.strip()
            if key in parsed:
                raise ScenarioError(
                    f"--where column {key!r} given twice; one equality "
                    "per column (clauses AND together)"
                )
            parsed[key] = value.strip()
    return parsed


def _metric_lines() -> List[str]:
    """One aligned ``name  doc`` line per registered metric."""
    width = max(len(name) for name in METRICS)
    return [
        f"{name.ljust(width)}  {metric.doc}"
        for name, metric in METRICS.items()
    ]


def _metrics_epilog() -> str:
    """The metric registry as --help text (same source check_docs reads)."""
    lines = ["metrics (default: %s):" % ",".join(DEFAULT_METRICS)]
    lines += [f"  {line}" for line in _metric_lines()]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The analyze argument parser (walked by tools/check_docs.py)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments analyze",
        description=(
            "Slice a persisted campaign directory: filter, group, and "
            "aggregate its per-trial records without re-running anything."
        ),
        epilog=_metrics_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "directory",
        nargs="?",
        metavar="DIR",
        help="a persisted record directory (campaign --out DIR)",
    )
    parser.add_argument(
        "--group-by",
        type=csv_list,
        default=None,
        metavar="C1,C2",
        help=(
            "grouping columns (default: protocol,timing,adversary; any "
            "axis/option/value column works, e.g. topology or seed)"
        ),
    )
    parser.add_argument(
        "--where",
        action="append",
        default=None,
        metavar="COL=VALUE",
        help=(
            "keep only rows whose column equals VALUE (repeatable / "
            "comma-separated; clauses AND together; values are parsed "
            "to the column's type)"
        ),
    )
    parser.add_argument(
        "--metrics",
        type=csv_list,
        default=None,
        metavar="M1,M2",
        help="aggregations per group, in column order (see epilog below)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="text",
        help="output format (default: text, the campaign-style table)",
    )
    parser.add_argument(
        "--against",
        metavar="BASELINE_DIR",
        default=None,
        help=(
            "regression-diff DIR against a second persisted directory: "
            "shared groups render each metric as current minus "
            "baseline; groups on one side only are flagged, never "
            "silently dropped"
        ),
    )
    parser.add_argument(
        "--partial",
        action="store_true",
        help=(
            "analyze a directory without a manifest (interrupted --out "
            "run): salvages every complete record instead of refusing"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the rendered report to FILE",
    )
    parser.add_argument(
        "--list-metrics",
        action="store_true",
        help="list metric names with descriptions and exit",
    )
    return parser


def cli_flags() -> List[str]:
    """Every long option of the analyze parser (for docs checking)."""
    return long_flags(build_parser())


def analyze_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_metrics:
        for line in _metric_lines():
            print(line)
        return 0
    if not args.directory:
        parser.error("a record directory is required (campaign --out DIR)")

    try:
        where = _parse_where(args.where or [])
        store = RecordStore.load(args.directory, partial=args.partial)
        group_by = args.group_by or list(DEFAULT_GROUP_BY)
        metrics = args.metrics or list(DEFAULT_METRICS)
        if args.against:
            baseline = RecordStore.load(args.against, partial=args.partial)
            result = diff_stores(
                store, baseline, group_by=group_by, where=where, metrics=metrics
            )
        else:
            result = analyze_store(
                store, group_by=group_by, where=where, metrics=metrics
            )
    except (PersistenceError, ScenarioError) as exc:
        parser.error(str(exc))
    report = render(result, args.format)
    print(report)
    if args.format == "text":
        if args.against:
            print(
                f"({len(store)} records from {args.directory} vs "
                f"{len(baseline)} from {args.against})"
            )
        else:
            print(f"({len(store)} records from {args.directory})")
    if args.output:
        write_table(report, args.output)
    return 0


__all__ = ["analyze_main", "build_parser", "cli_flags"]
