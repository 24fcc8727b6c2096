"""E9 (ablation) — the timeout margin trade-off.

The window calculus takes a free parameter ``margin``: extra slack added
to every ``a_i`` / ``d_i``.  The trade-off it buys:

* **robustness** — how much unmodelled delay/processing variance the
  run survives (E2 showed margin = 0 fails even at ρ = 0 because the
  strict window boundary is hit exactly);
* **capital lock-up** — on the failure path (Byzantine Bob withholding
  χ), deposits stay escrowed until the windows expire, so every unit of
  margin directly lengthens the refund latency and the a-priori
  termination bound.

This is the kind of deployment decision a paper leaves implicit and a
library must surface.
"""

from __future__ import annotations

from typing import Any, Dict

from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..verification.properties import check_outcome
from .harness import ExperimentResult, fraction, payment_session, seeds_for

DELTA = 1.0
EPSILON = 0.05
N = 3


def trial(spec) -> Dict[str, Any]:
    protocol_options = {"epsilon": EPSILON, "margin": spec.opt("margin")}
    # Happy path: everyone honest.
    session = payment_session(spec, protocol_options=protocol_options)
    outcome = session.run()
    params = session.protocol_instance.params
    bound = params.global_termination_bound()
    # Failure path: Bob withholds chi; refunds must wait out the full
    # windows.  (Bob is the last customer on the linear path.)
    session2 = payment_session(
        spec,
        protocol_options=protocol_options,
        payment_id=f"refund-{'-'.join(str(c) for c in spec.coords)}",
        byzantine={f"c{spec.opt('n')}": "bob_never_signs"},
    )
    outcome2 = session2.run()
    return {
        "a0": params.a_of(session.topology.escrow(0)),
        "bound": bound,
        "honest_ok": check_outcome(
            outcome,
            spec.opt("protocol"),
            spec.opt("timing"),
            protocol_options,
            termination_bound=bound,
        ).all_ok,
        "honest_end": outcome.end_time,
        "refund_end": outcome2.end_time,
    }


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    margins = (
        [0.025, 0.25, 1.0, 4.0]
        if quick
        else [0.025, 0.1, 0.25, 1.0, 2.0, 4.0, 8.0]
    )
    return SweepSpec.grid(
        "E9",
        trial,
        seed,
        axes={
            "margin": margins,
            "s": seeds_for(quick, quick_count=5, full_count=12),
        },
        n=N,
        protocol="timebounded",
        timing=("synchronous", {"delta": DELTA}),
        rho=0.01,
    )


def aggregate(sweep: SweepResult) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E9",
        title="ablation: timeout margin vs refund latency",
        claim=(
            "larger margins change nothing on the happy path but "
            "linearly delay refunds (and the termination bound) when the "
            "certificate never comes."
        ),
        columns=[
            "margin", "a0_window", "term_bound", "honest_ok",
            "honest_end", "refund_end",
        ],
    )
    sweep.raise_any()
    for margin in sweep.distinct("margin"):
        records = sweep.select(margin=margin)
        result.add_row(
            margin=margin,
            a0_window=records[-1]["a0"],
            term_bound=records[-1]["bound"],
            honest_ok=fraction(r["honest_ok"] for r in records),
            honest_end=max(r["honest_end"] for r in records),
            refund_end=max(r["refund_end"] for r in records),
        )
    result.note(
        f"n={N}, delta={DELTA}, epsilon={EPSILON}, rho=1%; refund_end is "
        "the worst-case completion time when Bob never signs."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run", "trial"]
