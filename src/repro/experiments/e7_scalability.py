"""E7 — simulator scalability (the "systems" figure).

Wall-clock time, event and message counts of the time-bounded protocol
as the path length grows.  The paper is a theory brief with no
performance section; this figure documents the reproduction substrate
itself: cost is linear-ish in path length (each hop adds a constant
number of messages: G, $, P forward; χ, $ backward).

The table reports the simulator's *deterministic* cost metrics only
(messages, events, simulated end time), so it stays byte-identical
across ``--jobs`` values like every other table.  Wall-clock cost is
covered by the CLI's per-experiment footer and by the ``evaluation``
workload of ``perfbench/``; per-trial walls are also on each
:class:`TrialRecord` for callers running the sweep themselves.
"""

from __future__ import annotations

from typing import Any, Dict

from ..runtime import SweepResult, SweepSpec, resolve_executor
from .harness import ExperimentResult, payment_session


def trial(spec) -> Dict[str, Any]:
    outcome = payment_session(spec).run()
    if not outcome.bob_paid:
        raise AssertionError(
            f"E7 run n={spec.opt('n')} unexpectedly failed"
        )
    return {
        "messages": outcome.messages_sent,
        "events": outcome.events_executed,
        "sim_end_time": outcome.end_time,
    }


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    sizes = [2, 4, 8, 16, 32] if quick else [2, 4, 8, 16, 32, 64, 128]
    return SweepSpec.grid(
        "E7",
        trial,
        seed,
        axes={"n": sizes},
        protocol="timebounded",
        timing=("synchronous", {"delta": 1.0}),
        rho=0.005,
    )


def aggregate(sweep: SweepResult) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E7",
        title="simulation cost vs path length",
        claim=(
            "messages grow linearly in the number of escrows (5n + "
            "constant); wall time (see benchmarks/) stays in "
            "milliseconds at n=64."
        ),
        columns=["n", "messages", "events", "sim_end_time"],
    )
    sweep.raise_any()
    for record in sweep:
        result.add_row(
            n=record.spec.opt("n"),
            messages=record["messages"],
            events=record["events"],
            sim_end_time=record["sim_end_time"],
        )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run", "trial"]
