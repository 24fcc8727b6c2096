"""The sweep front-end: command-line plumbing shared by every sweep CLI.

``python -m repro campaign`` and ``python -m repro workload`` differ in
what one trial is and how records reduce to a table, not in how a
sweep is driven from the command line.  Both take the same execution
and persistence flags (``--seed``, ``--set``, ``--jobs``,
``--chunksize``, ``--out``, ``--resume``, ``--output``), validate them
the same way, diff a ``--resume`` request against the records already
in ``--out``, stream records through one
:class:`~repro.runtime.persist.RecordWriter` and stamp the same
provenance (option overrides, the pool's chunksize) into its manifest.
This module is that layer; a sweep CLI adds only its own matrix flags,
its resume diff (a ``plan`` callable returning a :class:`Resume`) and
its table.
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ExperimentError, PersistenceError
from .aggregate import SweepResult, TrialRecord
from .executor import default_jobs, resolve_executor
from .persist import RecordWriter, ScanResult, scan_records
from .spec import SweepSpec

#: (flag, namespace attribute) of the shared flags that only make sense
#: when trials run — a reload-only mode such as ``campaign --from``
#: rejects them (see :func:`given_run_flags`).
RUN_FLAGS = (
    ("--seed", "seed"),
    ("--set", "overrides"),
    ("--jobs", "jobs"),
    ("--chunksize", "chunksize"),
    ("--out", "out"),
    ("--resume", "resume"),
)


def csv_list(value: str) -> List[str]:
    """Split a comma-separated axis list, dropping empty entries."""
    return [item.strip() for item in value.split(",") if item.strip()]


def csv_floats(value: str) -> List[float]:
    """A comma-separated list of floats (``0.0,0.1``)."""
    try:
        return [float(item) for item in csv_list(value)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None


def parse_set(value: str) -> Tuple[str, str, Any]:
    """Parse one ``--set protocol.option=value`` assignment.

    The value is read as JSON when possible (``30`` → int, ``true`` →
    bool, ``[1,2]`` → list) and kept as a string otherwise, so option
    types round-trip through the persisted records unchanged.
    """
    assignment, sep, raw = value.partition("=")
    target, dot, option = assignment.partition(".")
    if not sep or not dot or not target or not option:
        raise argparse.ArgumentTypeError(
            f"expected protocol.option=value, got {value!r}"
        )
    try:
        parsed: Any = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw
    return target, option, parsed


def collect_overrides(
    assignments: Optional[List[Tuple[str, str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """Fold repeated ``--set`` flags into {protocol: {option: value}}."""
    overrides: Dict[str, Dict[str, Any]] = {}
    for protocol, option, value in assignments or []:
        overrides.setdefault(protocol, {})[option] = value
    return overrides


def long_flags(parser: argparse.ArgumentParser) -> List[str]:
    """Every long flag ``parser`` accepts (for docs-consistency checks)."""
    flags: List[str] = []
    for action in parser._actions:
        flags.extend(opt for opt in action.option_strings if opt.startswith("--"))
    return sorted(set(flags) - {"--help"})


def add_sweep_flags(
    parser: argparse.ArgumentParser, *, unit: str, record: str, resume_rule: str
) -> None:
    """Register the shared execution and persistence flags.

    ``unit`` names what the executor fans out (``trials``, ``cells``),
    ``record`` what one persisted line holds (``trial``, ``payment``)
    and ``resume_rule`` what ``--resume`` keeps; all three only shape
    help text.  Every flag defaults to ``None`` (``--resume`` to
    ``False``) so a passed flag is distinguishable from an omitted one
    under any argparse spelling.
    """
    parser.add_argument(
        "--seed", type=int, default=None, help="master seed (default: 0)"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        type=parse_set,
        action="append",
        default=None,
        metavar="PROTO.OPT=VAL",
        help=(
            "per-protocol option override, repeatable (e.g. --set "
            "weak.patience_setup=30); merged over the protocol's campaign "
            "defaults and recorded in the --out manifest"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help=(
            f"worker processes over {unit} (default: $REPRO_JOBS or 1; "
            "records and table are byte-identical whatever N)"
        ),
    )
    parser.add_argument(
        "--chunksize",
        type=int,
        default=None,
        metavar="C",
        help=(
            f"{unit} per worker batch for parallel runs (default: "
            "$REPRO_CHUNKSIZE, else ~4 batches per worker); the chosen "
            "value is recorded in the --out manifest; ignored when "
            "running serially"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=(
            f"stream one record per {record} to DIR (records.jsonl + "
            "records.csv + manifest.json), sliceable with "
            "`python -m repro analyze DIR`"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            f"with --out DIR: {resume_rule} (persisted records stay "
            "byte-identical; also repairs an interrupted --out run)"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the rendered table to FILE",
    )


def given_run_flags(args: argparse.Namespace) -> List[str]:
    """The :data:`RUN_FLAGS` explicitly passed on the command line."""
    return [
        flag for flag, attr in RUN_FLAGS if getattr(args, attr) not in (None, False)
    ]


def resolve_jobs(parser: argparse.ArgumentParser, jobs: Optional[int]) -> int:
    """``--jobs`` if given, else ``$REPRO_JOBS``; below 1 is a usage error."""
    jobs = jobs if jobs is not None else default_jobs()
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    return jobs


def check_sweep_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace, noun: str
) -> int:
    """Validate the shared flags; returns the job count.

    ``noun`` names what ``--resume`` grows (``matrix``, ``workload``).
    """
    jobs = resolve_jobs(parser, args.jobs)
    if args.chunksize is not None and args.chunksize < 1:
        parser.error(f"--chunksize must be >= 1, got {args.chunksize}")
    if args.resume and not args.out:
        parser.error(f"--resume grows a persisted {noun} and needs --out DIR")
    return jobs


@dataclass
class Resume:
    """A ``--resume`` plan: what stays on disk and what still runs.

    ``missing`` is the sub-sweep to execute; ``keep`` the persisted
    records the writer appends after (its ``jsonl_bytes`` is where the
    append starts); ``reused`` the count the footer reports as reused.
    """

    missing: SweepSpec
    keep: ScanResult
    reused: int


@dataclass
class SweepRun:
    """What :func:`execute` ran and wrote."""

    result: SweepResult
    to_run: SweepSpec
    resume: Optional[Resume]
    jobs: int
    elapsed: float
    written: int = 0


def execute(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    sweep: SweepSpec,
    jobs: int,
    *,
    plan: Callable[[SweepSpec, ScanResult], Resume],
    expand: Optional[Callable[[TrialRecord], Iterable[TrialRecord]]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> SweepRun:
    """Run ``sweep`` (or, under ``--resume``, what ``plan`` leaves missing).

    With ``--out``, every executed record streams to the writer as the
    executor yields it — through ``expand`` when one executed record
    persists as several (a workload cell as one record per payment).
    The manifest gets ``extra`` plus the ``--set`` overrides and the
    chunksize the pool used.  Usage problems (an unwritable ``--out``,
    a resume diff that refuses the directory) exit through
    ``parser.error``.
    """
    resume = None
    to_run = sweep
    if args.resume:
        try:
            resume = plan(sweep, scan_records(args.out))
        except ExperimentError as exc:
            parser.error(str(exc))
        to_run = resume.missing
    writer = None
    if args.out:
        try:
            writer = RecordWriter(
                args.out,
                sweep_id=sweep.sweep_id,
                resume_from=resume.keep if resume is not None else None,
            )
        except OSError as exc:
            parser.error(f"cannot write records to {args.out}: {exc}")
        except PersistenceError as exc:
            parser.error(str(exc))

    def sink(record: TrialRecord) -> None:
        for persisted in expand(record) if expand else (record,):
            writer.write(persisted)

    t0 = time.perf_counter()
    # Records stream to disk as the executor yields them; the writer
    # holds at most the error rows seen before the first success.
    with resolve_executor(jobs=jobs, chunksize=args.chunksize) as executor, (
        writer if writer is not None else nullcontext()
    ):
        result = executor.run(to_run, sink=sink if writer is not None else None)
        if writer is not None:
            manifest = dict(extra or {})
            overrides = collect_overrides(args.overrides)
            if overrides:
                manifest["option_overrides"] = overrides
            # The chunksize the pool actually used (None for serial or
            # single-trial runs) is provenance, like jobs.
            chunksize = getattr(executor, "last_chunksize", None)
            if chunksize is not None:
                manifest["chunksize"] = chunksize
            writer.close(wall_seconds=result.wall_seconds, jobs=jobs, extra=manifest)
    return SweepRun(
        result,
        to_run,
        resume,
        jobs,
        time.perf_counter() - t0,
        writer.count if writer is not None else 0,
    )


def write_table(table: str, path: str) -> None:
    """Write a rendered table to ``path`` — only the table, so the
    artifact stays byte-identical across ``--jobs`` values and between a
    live run and a reload."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print(f"wrote {path}")


def report(
    args: argparse.Namespace, table: str, run: SweepRun, unit: str, summary: str
) -> None:
    """Print the table and a footer, then what was written where.

    The footer names what ran: ``summary`` for a fresh run, the new
    ``unit`` count and the reused count for a ``--resume``.
    """
    if run.resume is not None:
        summary = (
            f"{len(run.to_run)} new {unit} run, {run.resume.reused} reused "
            f"from {args.out},"
        )
    print(table)
    print(f"({summary} in {run.elapsed:.1f}s, jobs={run.jobs})")
    if args.out:
        print(f"wrote {run.written} records to {args.out}")
    if args.output:
        write_table(table, args.output)


__all__ = [
    "RUN_FLAGS",
    "Resume",
    "SweepRun",
    "add_sweep_flags",
    "check_sweep_args",
    "collect_overrides",
    "csv_floats",
    "csv_list",
    "execute",
    "given_run_flags",
    "long_flags",
    "parse_set",
    "report",
    "resolve_jobs",
    "write_table",
]
