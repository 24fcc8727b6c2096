"""Command-line entry point: run the reproduction's experiments.

Usage::

    python -m repro                    # all experiments, quick mode
    python -m repro E1 E3 --full       # selected experiments, full sweeps
    python -m repro --jobs 4           # fan trials out over 4 processes
    REPRO_JOBS=4 python -m repro E2    # same, via the environment
    repro-experiments --list           # ids + one-line descriptions
    python -m repro campaign ...       # scenario-matrix campaigns
                                       # (see repro.scenarios.cli)
    python -m repro analyze DIR ...    # slice persisted campaign records
                                       # (see repro.analysis.cli)
    python -m repro workload ...       # concurrent payments on a shared
                                       # liquidity substrate
                                       # (see repro.workload.cli)

Every experiment is a declarative sweep (see :mod:`repro.runtime`):
trials are pure functions of their spec, so ``--jobs N`` runs them on a
process pool and still produces byte-identical tables to a serial run.
``--full`` widens the sweeps (more seeds, sizes, and drift points); the
default quick mode keeps the whole evaluation in the tens of seconds.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import import_module
from typing import List, Optional

from .experiments import EXPERIMENTS, experiment_doc, render_table
from .runtime import resolve_executor
from .runtime.frontend import resolve_jobs

#: Subcommand -> entry point, imported only when invoked.
SUBCOMMANDS = {
    # Scenario-matrix campaigns.
    "campaign": "repro.scenarios.cli:campaign_main",
    # Post-hoc analytics over a persisted --out directory.
    "analyze": "repro.analysis.cli:analyze_main",
    # Concurrent multi-payment workloads on a shared liquidity substrate.
    "workload": "repro.workload.cli:workload_main",
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        # Subcommands keep their own flag sets; the plain invocation
        # stays positional for backward compatibility.
        module, _, name = SUBCOMMANDS[argv[0]].partition(":")
        return getattr(import_module(module), name)(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'Feasibility of Cross-Chain "
            "Payment with Success Guarantees' (SPAA 2020)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXP",
        help="experiment ids (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full sweeps (slower, more seeds/sizes)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweep trials (default: $REPRO_JOBS or 1; "
            "results are byte-identical whatever N)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write all rendered tables to FILE (markdown-friendly)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in sorted(EXPERIMENTS):
            print(f"{exp_id}: {experiment_doc(exp_id)}")
        return 0

    jobs = resolve_jobs(parser, args.jobs)

    selected = [e.upper() for e in args.experiments] or sorted(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}")

    sections = []
    # One executor for the whole evaluation: the worker pool spins up
    # once and is reused by every experiment's sweep.
    with resolve_executor(jobs=jobs) as executor:
        for exp_id in selected:
            t0 = time.perf_counter()
            result = EXPERIMENTS[exp_id](
                quick=not args.full, seed=args.seed, executor=executor
            )
            elapsed = time.perf_counter() - t0
            table = render_table(result)
            footer = f"({exp_id} completed in {elapsed:.1f}s, jobs={jobs})"
            print(table)
            print(footer)
            print()
            sections.append(f"{table}\n{footer}\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            mode = "full" if args.full else "quick"
            handle.write(
                f"# Experiment results ({mode} mode, seed={args.seed})\n\n"
            )
            for section in sections:
                handle.write("```\n" + section + "```\n\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
