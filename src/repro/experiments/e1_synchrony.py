"""E1 — Theorem 1: the time-bounded protocol under synchrony.

Sweep path length and seeds; with everyone honest, bounded drift, and
the drift-tuned calculus, **every** run must satisfy Definition 1 (all
seven properties), Bob is always paid, and every customer terminates
within the a-priori bound.
"""

from __future__ import annotations

from typing import Any, Dict

from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..verification.properties import check_outcome
from .harness import (
    ExperimentResult,
    fraction,
    mean,
    payment_session,
    seeds_for,
)

DELTA = 1.0
EPSILON = 0.05
RHO = 0.01


def trial(spec) -> Dict[str, Any]:
    """One payment run; returns the scalars the table aggregates."""
    session = payment_session(spec)
    outcome = session.run()
    bound = session.protocol_instance.params.global_termination_bound()
    report = check_outcome(
        outcome,
        spec.opt("protocol"),
        spec.opt("timing"),
        spec.opt("protocol_options"),
        termination_bound=bound,
    )
    return {
        "bob_paid": outcome.bob_paid,
        "def1_ok": report.all_ok,
        "term_time": max(
            t for t in outcome.termination_times.values() if t is not None
        ),
        "messages": outcome.messages_sent,
        "bound": bound,
    }


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    sizes = [1, 2, 4] if quick else [1, 2, 4, 6, 8]
    return SweepSpec.grid(
        "E1",
        trial,
        seed,
        axes={"n": sizes, "s": seeds_for(quick)},
        protocol="timebounded",
        timing=("synchronous", {"delta": DELTA}),
        rho=RHO,
        protocol_options={"epsilon": EPSILON},
    )


def aggregate(sweep: SweepResult) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E1",
        title="time-bounded protocol under synchrony (Theorem 1)",
        claim=(
            "Assuming synchrony, the drift-tuned universal protocol solves "
            "time-bounded cross-chain payment: all of C, T, ES, CS1-3, L "
            "hold on every run."
        ),
        columns=[
            "n", "runs", "bob_paid", "def1_ok", "max_term_time",
            "bound", "mean_msgs",
        ],
    )
    sweep.raise_any()
    for n in sweep.distinct("n"):
        records = sweep.select(n=n)
        result.add_row(
            n=n,
            runs=len(records),
            bob_paid=fraction(r["bob_paid"] for r in records),
            def1_ok=fraction(r["def1_ok"] for r in records),
            max_term_time=max(r["term_time"] for r in records),
            bound=records[-1]["bound"],
            mean_msgs=mean(r["messages"] for r in records),
        )
    result.note(
        f"delta={DELTA}, epsilon={EPSILON}, rho={RHO}; bob_paid and def1_ok "
        "are fractions of runs (1.0 = theorem reproduced)."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run", "trial"]
