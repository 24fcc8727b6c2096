"""E2 — the clock-drift fine-tuning ablation.

The paper's stated delta over prior work: "the synchronous solutions of
[Interledger] and [Herlihy et al.] do not consider clock drift".  We
run the *same* protocol with the **naive** timeout calculus (windows =
real-time bounds + margin, no (1+ρ) inflation) and with the paper's
**drift-tuned** calculus, under worst-case conditions: all delays at
the bound Δ, processing pinned at ε, and one mid-path escrow whose
clock runs maximally fast.

Analysis: the fast escrow ``e_1`` measures its window ``a_1`` on a
clock running at ``1+ρ``, so the real window is ``a_1/(1+ρ)``; the
certificate legitimately arrives after real time ``H_1``.  The naive
window ``H_1 + m`` therefore fails once ``ρ > m / H_1`` — with the
margin ``m = ε/2`` and ``n = 4`` hops that threshold is ρ ≈ 0.0024,
so every swept drift above zero breaks it.  The failure mode is the
nasty one: the drifting escrow refunds upstream while its downstream
peer already paid out — the connector between them ends out of pocket
(CS3), exactly the incident the paper's fine-tuning prevents.  The
tuned window ``(1+ρ)·H_1 + m`` never fails.
"""

from __future__ import annotations

from typing import Any, Dict

from ..clocks import extremal_clock
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..verification.properties import check_outcome
from .harness import ExperimentResult, fraction, payment_session, seeds_for

DELTA = 1.0
EPSILON = 0.05
MARGIN = EPSILON / 2.0
N = 4
FAST_ESCROW = "e1"


def trial(spec) -> Dict[str, Any]:
    rho = spec.opt("rho_clock")
    protocol_options = {
        "epsilon": EPSILON,
        "rho": rho,
        "drift_tuned": spec.opt("drift_tuned"),
        "margin": MARGIN,
        "processing_floor": EPSILON,  # pin processing at its bound
    }
    outcome = payment_session(
        spec,
        # All delays exactly at the bound: the adversarially slow network
        # the calculus must survive.
        clocks={FAST_ESCROW: extremal_clock(rho, fast=True)},
        protocol_options=protocol_options,
    ).run()
    report = check_outcome(
        outcome, spec.opt("protocol"), spec.opt("timing"), protocol_options
    )
    # A connector is monetarily harmed when her position has a negative
    # component and is not the success position — she paid downstream
    # without being paid upstream.  (If she is still waiting, the T
    # violation covers her; the money damage is what this surfaces.)
    harmed = any(
        any(u < 0 for u in outcome.position_delta(c).values())
        and not outcome.in_success_position(c)
        for c in outcome.topology.connectors()
    )
    return {
        "bob_paid": outcome.bob_paid,
        "bad": not report.all_ok,
        "harmed": harmed,
        "props": sorted(v.property_id.value for v in report.violations()),
    }


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    rhos = (
        [0.0, 0.005, 0.02, 0.05]
        if quick
        else [0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
    )
    return SweepSpec.grid(
        "E2",
        trial,
        seed,
        axes={
            "rho_clock": rhos,
            "drift_tuned": [False, True],
            "s": seeds_for(quick, quick_count=5, full_count=15),
        },
        n=N,
        protocol="timebounded",
        timing=("synchronous", {"delta": DELTA, "min_delay": DELTA}),
    )


def aggregate(sweep: SweepResult) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E2",
        title="drift-tuned vs naive timeout calculus (the paper's fix)",
        claim=(
            "Without the (1+rho) drift inflation the universal protocol "
            "violates connector security (CS3) under worst-case clocks for "
            "any drift above m/H; with the paper's fine-tuning it never "
            "does."
        ),
        columns=[
            "rho", "calculus", "runs", "bob_paid", "violations",
            "connector_harmed", "violated_props",
        ],
    )
    sweep.raise_any()
    for rho in sweep.distinct("rho_clock"):
        for drift_tuned in (False, True):
            records = sweep.select(rho_clock=rho, drift_tuned=drift_tuned)
            props: set = set()
            for record in records:
                props |= set(record["props"])
            result.add_row(
                rho=rho,
                calculus="tuned" if drift_tuned else "naive",
                runs=len(records),
                bob_paid=fraction(r["bob_paid"] for r in records),
                violations=fraction(r["bad"] for r in records),
                connector_harmed=fraction(r["harmed"] for r in records),
                violated_props=",".join(sorted(props)) or "-",
            )
    result.note(
        f"worst case: all delays = Delta={DELTA}, processing pinned at "
        f"epsilon={EPSILON}, margin={MARGIN}, escrow {FAST_ESCROW} fast by "
        f"(1+rho); predicted naive-failure threshold rho = "
        f"{MARGIN:.3g}/H_1."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run", "trial"]
